package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/run"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/warehouse"
	"repro/zoom/client"
)

// newWorker boots one real worker server over w.
func newWorker(t *testing.T, w *warehouse.Warehouse) *httptest.Server {
	t.Helper()
	s, err := server.New(obs.NewRegistry(), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetEngine(provenance.NewEngine(w))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// corpusRun is one generated run of the differential corpus.
type corpusRun struct {
	id       string
	specName string
	relevant []string
	targets  []string
}

// buildCorpus generates one workflow per Table I class and runs per run
// class, returning the specs, runs, and per-run query targets.
func buildCorpus(t *testing.T, runClasses []gen.RunClass) ([]*spec.Spec, []*run.Run, []corpusRun) {
	t.Helper()
	g := gen.NewGenerator(42)
	var specs []*spec.Spec
	var runs []*run.Run
	var infos []corpusRun
	for i, wc := range gen.Classes() {
		sp := g.Workflow(wc, fmt.Sprintf("wf%d", i+1))
		specs = append(specs, sp)
		for _, rc := range runClasses {
			id := fmt.Sprintf("run-%d-%s", i+1, rc.Name)
			r, _, err := g.Run(sp, rc, id)
			if err != nil {
				t.Fatalf("generate %s: %v", id, err)
			}
			targets := r.FinalOutputs()
			if len(targets) == 0 {
				targets = r.AllData()
			}
			if len(targets) > 2 {
				targets = targets[:2]
			}
			runs = append(runs, r)
			infos = append(infos, corpusRun{
				id:       id,
				specName: sp.Name(),
				relevant: gen.UBioRelevant(sp),
				targets:  targets,
			})
		}
	}
	return specs, runs, infos
}

// buildCluster loads the corpus into one full warehouse plus n shard
// warehouses split by the ring, boots a worker per shard and a router in
// front, and returns (single-node URL, router URL, router).
func buildCluster(t *testing.T, n int, specs []*spec.Spec, runs []*run.Run) (string, string, *Router) {
	t.Helper()
	ring, err := NewRing(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	full := warehouse.New(0)
	shardWh := make([]*warehouse.Warehouse, n)
	for i := range shardWh {
		shardWh[i] = warehouse.New(0)
	}
	for _, sp := range specs {
		if err := full.RegisterSpec(sp); err != nil {
			t.Fatal(err)
		}
		for _, w := range shardWh {
			if err := w.RegisterSpec(sp); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, r := range runs {
		if err := full.LoadRun(r); err != nil {
			t.Fatal(err)
		}
		if err := shardWh[ring.Place(r.ID())].LoadRun(r); err != nil {
			t.Fatal(err)
		}
	}
	single := newWorker(t, full)
	shards := make([][]string, n)
	for i, w := range shardWh {
		shards[i] = []string{newWorker(t, w).URL}
	}
	rt, err := New(obs.NewRegistry(), Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	return single.URL, rts.URL, rt
}

// loadAll loads the corpus into one warehouse, as a single node holds it.
func loadAll(t *testing.T, specs []*spec.Spec, runs []*run.Run) *warehouse.Warehouse {
	t.Helper()
	w := warehouse.New(0)
	for _, sp := range specs {
		if err := w.RegisterSpec(sp); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range runs {
		if err := w.LoadRun(r); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func postRaw(t *testing.T, base, path, traceID, body string) (int, []byte) {
	t.Helper()
	status, b, _ := postResp(t, base, path, traceID, body)
	return status, b
}

// postTraced is postRaw that also returns the response's X-Zoom-Trace-Id.
func postTraced(t *testing.T, base, path, traceID, body string) (int, []byte, string) {
	t.Helper()
	status, b, h := postResp(t, base, path, traceID, body)
	return status, b, h.Get(client.TraceIDHeader)
}

// postResp is postRaw that also returns the response headers.
func postResp(t *testing.T, base, path, traceID, body string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(client.TraceIDHeader, traceID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b, resp.Header
}

func getRaw(t *testing.T, base, path, traceID string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if traceID != "" {
		req.Header.Set(client.TraceIDHeader, traceID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func TestRouterForwardAndGather(t *testing.T) {
	specs, runs, infos := buildCorpus(t, []gen.RunClass{gen.Small()})
	_, routerURL, rt := buildCluster(t, 2, specs, runs)
	c := client.New(routerURL, client.Options{})
	ctx := context.Background()

	// Run-addressed queries land on the owning shard and come back whole.
	for _, info := range infos {
		q, err := c.Query(ctx, client.QueryRequest{Run: info.id, Data: info.targets[0]})
		if err != nil {
			t.Fatalf("query %s through router: %v", info.id, err)
		}
		if q.Kind != "deep" || q.Result == nil || len(q.Result.Executions) == 0 {
			t.Fatalf("query %s: unexpected answer %+v", info.id, q)
		}
		b, err := c.Batch(ctx, client.BatchRequest{Run: info.id, Data: info.targets})
		if err != nil {
			t.Fatalf("batch %s through router: %v", info.id, err)
		}
		if b.Count != len(info.targets) {
			t.Fatalf("batch %s: count %d, want %d", info.id, b.Count, len(info.targets))
		}
	}

	// The merged catalog covers every run, sorted, with a count.
	rr, err := c.Runs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Count != len(runs) || len(rr.Runs) != len(runs) {
		t.Fatalf("merged runs count %d, want %d", rr.Count, len(runs))
	}
	for i := 1; i < len(rr.Runs); i++ {
		if rr.Runs[i-1].ID >= rr.Runs[i].ID {
			t.Fatalf("merged runs not sorted: %q before %q", rr.Runs[i-1].ID, rr.Runs[i].ID)
		}
	}

	// Cluster stats carry one raw document per shard.
	st, code := getRaw(t, routerURL, "/v1/cluster/stats", "")
	if st != http.StatusOK {
		t.Fatalf("cluster stats status %d", st)
	}
	var stats clusterStatsResponse
	if err := json.Unmarshal(code, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.ShardsTotal != 2 || stats.ShardsOK != 2 || len(stats.Shards) != 2 || stats.Partial {
		t.Fatalf("cluster stats shape unexpected: %+v", stats)
	}

	// Worker errors pass through verbatim (status and body), and the
	// router validates only what it needs (a run id).
	status, body := postRaw(t, routerURL, "/v1/query", "", `{"run":"no-such-run","data":"d1"}`)
	if status != http.StatusNotFound || !strings.Contains(string(body), "unknown run") {
		t.Fatalf("unknown run via router: status %d body %s", status, body)
	}
	status, _ = postRaw(t, routerURL, "/v1/query", "", `{"data":"d1"}`)
	if status != http.StatusBadRequest {
		t.Fatalf("missing run id: status %d, want 400", status)
	}

	// Readyz is live and all shards are up.
	status, body = getRaw(t, routerURL, "/readyz", "")
	if status != http.StatusOK || !strings.Contains(string(body), `"ready":true`) {
		t.Fatalf("readyz: status %d body %s", status, body)
	}
	if got := rt.shardStates(); len(got) != 2 || !got[0].Ready || !got[1].Ready {
		t.Fatalf("shard states unexpected: %+v", got)
	}
}

// TestRouterTraceIDPropagation: an inbound trace id travels with the query
// to the worker (which adopts it) and comes back in the router's response
// header; the answer body names none.
func TestRouterTraceIDPropagation(t *testing.T) {
	specs, runs, infos := buildCorpus(t, []gen.RunClass{gen.Small()})
	full := loadAll(t, specs, runs)
	s, err := server.New(obs.NewRegistry(), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetEngine(provenance.NewEngine(full))
	h := s.Handler()
	var workerID atomic.Value // the id the query reached the worker with
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/query" {
			workerID.Store(r.Header.Get(client.TraceIDHeader))
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(worker.Close)
	rt, err := New(obs.NewRegistry(), Config{Shards: [][]string{{worker.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)

	const id = "00000000deadbeef"
	status, body, hdr := postTraced(t, rts.URL, "/v1/query", id,
		fmt.Sprintf(`{"run":%q,"data":%q}`, infos[0].id, infos[0].targets[0]))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if hdr != id || workerID.Load() != id {
		t.Fatalf("trace id did not survive the router hop: router header %q, worker %q, want %q", hdr, workerID.Load(), id)
	}
	if strings.Contains(string(body), id) {
		t.Fatalf("answer body names the trace: %s", body)
	}
}

// TestRouterDeadShardFast502 kills one worker and checks the failure
// mode the tentpole promises: requests for the dead shard fail fast with
// a 502 naming the shard, the breaker opens after the threshold, and the
// surviving shard keeps answering.
func TestRouterDeadShardFast502(t *testing.T) {
	specs, runs, infos := buildCorpus(t, []gen.RunClass{gen.Small()})
	_, routerURL, rt := buildCluster(t, 2, specs, runs)

	// Find runs on both shards.
	byShard := map[int]corpusRun{}
	for _, info := range infos {
		byShard[rt.ring.Place(info.id)] = info
	}
	if len(byShard) != 2 {
		t.Skip("corpus landed on one shard; grow the corpus")
	}

	// Kill shard 0 by pointing it at a closed listener.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	rt.shards[0].replicas[0].base = deadURL
	rt.shards[0].replicas[0].cl = client.New(deadURL, client.Options{Timeout: -1})

	deadRun, liveRun := byShard[0], byShard[1]
	body := fmt.Sprintf(`{"run":%q,"data":%q}`, deadRun.id, deadRun.targets[0])

	// Requests to the dead shard 502 fast, name the shard, and name their
	// trace in the header.
	for i := int32(0); i < rt.breakerThreshold; i++ {
		start := time.Now()
		status, b, hdr := postTraced(t, routerURL, "/v1/query", "", body)
		if status != http.StatusBadGateway || !obs.ValidTraceID(hdr) {
			t.Fatalf("dead shard request %d: status %d, trace id %q, body %s", i, status, hdr, b)
		}
		if !strings.Contains(string(b), "shard 0") {
			t.Fatalf("502 body does not name the shard: %s", b)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("dead-shard 502 took %v, want fast", d)
		}
	}

	// The breaker is now open: the next request fails without dialing.
	if rt.shards[0].state(time.Now()) != "circuit open" {
		t.Fatalf("breaker not open after %d failures", rt.breakerThreshold)
	}
	status, b, hdr := postTraced(t, routerURL, "/v1/query", "", body)
	if status != http.StatusBadGateway || !strings.Contains(string(b), "circuit open") || !obs.ValidTraceID(hdr) {
		t.Fatalf("open-circuit request: status %d, trace id %q, body %s", status, hdr, b)
	}
	// A traced fast 502 carries the router's tree like any other status.
	status, _, h := postResp(t, routerURL, "/v1/query?trace=1", "", body)
	if tree := headerTree(t, h); status != http.StatusBadGateway || tree.Find("route.pick") == nil {
		t.Fatalf("traced fast 502: status %d, tree %+v", status, tree)
	}

	// The surviving shard still answers.
	status, b = postRaw(t, routerURL, "/v1/query", "",
		fmt.Sprintf(`{"run":%q,"data":%q}`, liveRun.id, liveRun.targets[0]))
	if status != http.StatusOK {
		t.Fatalf("live shard after neighbor death: status %d body %s", status, b)
	}

	// Scatter-gather degrades to a flagged partial answer, never a hang.
	status, b = getRaw(t, routerURL, "/v1/runs", "")
	if status != http.StatusOK {
		t.Fatalf("partial runs status %d", status)
	}
	var rr routerRunsResponse
	if err := json.Unmarshal(b, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Partial || len(rr.FailedShards) != 1 || rr.FailedShards[0].Shard != 0 {
		t.Fatalf("partial runs shape unexpected: %+v", rr)
	}
	if rr.Count == 0 {
		t.Fatal("partial runs dropped the surviving shard's runs")
	}

	// And the router reports itself not ready.
	status, _ = getRaw(t, routerURL, "/readyz", "")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("readyz with dead shard: status %d, want 503", status)
	}
}

// TestRouterHealthJoinLeave drives the poll-based join/leave cycle: a
// worker that reports not-ready is taken out of rotation (fast 502), and
// rejoins within one poll of reporting ready again.
func TestRouterHealthJoinLeave(t *testing.T) {
	specs, runs, infos := buildCorpus(t, []gen.RunClass{gen.Small()})
	full := loadAll(t, specs, runs)
	s, err := server.New(obs.NewRegistry(), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetEngine(provenance.NewEngine(full))

	// Wrap the worker so /readyz can be forced to 503 while the API keeps
	// working — a worker mid-reload.
	var down atomic.Bool
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() && r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"ready": false}`)
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	rt, err := New(obs.NewRegistry(), Config{Shards: [][]string{{ts.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	body := fmt.Sprintf(`{"run":%q,"data":%q}`, infos[0].id, infos[0].targets[0])

	// Healthy poll: traffic flows.
	if !rt.checkAll(context.Background()) {
		t.Fatal("initial health check should pass")
	}
	status, _ := postRaw(t, rts.URL, "/v1/query", "", body)
	if status != http.StatusOK {
		t.Fatalf("healthy worker: status %d", status)
	}

	// Leave: poll sees not-ready, forwards fail fast naming the state.
	down.Store(true)
	if rt.checkAll(context.Background()) {
		t.Fatal("health check should fail while worker reports not ready")
	}
	status, b := postRaw(t, rts.URL, "/v1/query", "", body)
	if status != http.StatusBadGateway || !strings.Contains(string(b), "worker not ready") {
		t.Fatalf("down worker: status %d body %s", status, b)
	}

	// Join: one healthy poll puts it back in rotation.
	down.Store(false)
	if !rt.checkAll(context.Background()) {
		t.Fatal("health check should recover")
	}
	status, _ = postRaw(t, rts.URL, "/v1/query", "", body)
	if status != http.StatusOK {
		t.Fatalf("rejoined worker: status %d", status)
	}
}
