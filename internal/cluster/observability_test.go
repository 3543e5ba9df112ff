package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/server"
	"repro/internal/warehouse"
	"repro/zoom/client"
)

// buildObsCluster is buildCluster with two observability twists: each
// worker's warehouse carries the SAME registry as its HTTP server (so the
// stats document embeds http.* counters, like `zoom serve` wires it), and
// the router takes a caller-supplied Config.
func buildObsCluster(t *testing.T, n int, cfg Config) (string, *Router, []string) {
	t.Helper()
	specs, runs, infos := buildCorpus(t, []gen.RunClass{gen.Small()})
	ring, err := NewRing(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	shardWh := make([]*warehouse.Warehouse, n)
	for i := range shardWh {
		shardWh[i] = warehouse.New(0)
		for _, sp := range specs {
			if err := shardWh[i].RegisterSpec(sp); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, r := range runs {
		if err := shardWh[ring.Place(r.ID())].LoadRun(r); err != nil {
			t.Fatal(err)
		}
	}
	workers := make([]string, n)
	for i, w := range shardWh {
		reg := obs.NewRegistry()
		w.AttachMetrics(reg)
		s, err := server.New(reg, server.Config{})
		if err != nil {
			t.Fatal(err)
		}
		s.SetEngine(provenance.NewEngine(w))
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		workers[i] = ts.URL
	}
	cfg.Workers = workers
	rt, err := New(obs.NewRegistry(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	// Any corpus run works for the trace tests; return the ids.
	ids := make([]string, 0, len(infos))
	for _, info := range infos {
		ids = append(ids, info.id+"\x00"+info.targets[0])
	}
	return rts.URL, rt, ids
}

// TestRouterStitchedTrace drives the tentpole end to end: one traced
// request through the router returns ONE span tree containing the
// router's spans (route.pick, cache.lookup, replica.attempt) with the
// worker's engine spans as a child subtree of the winning attempt, and
// the same stitched tree lands in the router slowlog.
func TestRouterStitchedTrace(t *testing.T) {
	routerURL, rt, ids := buildObsCluster(t, 2, Config{
		CacheEntries:  16,
		SlowThreshold: -1, // log every request
	})
	parts := strings.SplitN(ids[0], "\x00", 2)
	runID, target := parts[0], parts[1]
	const id = "0123456789abcdef"

	status, body, gotID := postTraced(t, routerURL, "/v1/query?trace=1", id,
		fmt.Sprintf(`{"run":%q,"data":%q}`, runID, target))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp struct {
		Trace *obs.SpanNode `json:"trace"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if gotID != id {
		t.Fatalf("trace id %q, want %q", gotID, id)
	}
	if resp.Trace == nil {
		t.Fatalf("no inline trace in routed response: %s", body)
	}
	if resp.Trace.Name != "POST /v1/query" {
		t.Fatalf("stitched root is %q, want the router route", resp.Trace.Name)
	}

	pick := resp.Trace.Find("route.pick")
	if pick == nil || pick.Tags["run"] != runID || pick.Tags["shard"] == "" {
		t.Fatalf("route.pick missing or untagged: %+v", pick)
	}
	// ?trace=1 carries a query string, so the enabled cache is bypassed —
	// and the span says so.
	look := resp.Trace.Find("cache.lookup")
	if look == nil || look.Tags["outcome"] != "bypass" {
		t.Fatalf("cache.lookup missing or outcome != bypass: %+v", look)
	}
	att := resp.Trace.Find("replica.attempt")
	if att == nil {
		t.Fatalf("no replica.attempt span: %+v", resp.Trace)
	}
	if att.Tags["outcome"] != "won" || !strings.HasPrefix(att.Tags["addr"], "http://") {
		t.Fatalf("attempt tags unexpected: %+v", att.Tags)
	}
	wantRef := id + ".a0"
	if att.Tags["span"] != wantRef {
		t.Fatalf("attempt span ref %q, want %q", att.Tags["span"], wantRef)
	}

	// The worker's subtree hangs under the winning attempt and names the
	// attempt it answered via the propagated parent-span header.
	var workerRoot *obs.SpanNode
	for i := range att.Children {
		if att.Children[i].Name == "POST /v1/query" {
			workerRoot = &att.Children[i]
		}
	}
	if workerRoot == nil {
		t.Fatalf("worker subtree missing under attempt: %+v", att)
	}
	if workerRoot.Tags["parent_span"] != wantRef {
		t.Fatalf("worker root parent_span %q, want %q", workerRoot.Tags["parent_span"], wantRef)
	}
	for _, span := range []string{"query.lookup", "closure.compute", "query.project"} {
		if workerRoot.Find(span) == nil {
			t.Fatalf("worker subtree missing %s: %+v", span, workerRoot)
		}
	}
	// The worker's closure-cache outcome, which its answer does not carry,
	// survives the stitch as a tag.
	if o := workerRoot.Find("query.lookup").Tags["outcome"]; o != "miss" {
		t.Fatalf("worker query.lookup outcome %q, want miss", o)
	}

	// The same stitched tree is in the router slowlog (threshold < 0 logs
	// everything), both via the API and at /debug/slowlog.
	var entry *obs.SlowEntry
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		for _, e := range rt.SlowLog().Entries() {
			if e.TraceID == id {
				entry = &e
				break
			}
		}
		if entry != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if entry == nil {
		t.Fatal("traced request never reached the router slowlog")
	}
	if entry.Trace.Find("replica.attempt") == nil || entry.Trace.Find("query.lookup") == nil {
		t.Fatalf("slowlog tree not stitched: %+v", entry.Trace)
	}
	status, body = getRaw(t, routerURL, "/debug/slowlog", "")
	if status != http.StatusOK || !strings.Contains(string(body), id) {
		t.Fatalf("/debug/slowlog: status %d, body misses trace %s", status, id)
	}

	// An untraced request through the same router must NOT grow a trace
	// field: stitching is strictly opt-in.
	status, body = postRaw(t, routerURL, "/v1/query", "",
		fmt.Sprintf(`{"run":%q,"data":%q}`, runID, target))
	if status != http.StatusOK {
		t.Fatalf("untraced status %d", status)
	}
	if strings.Contains(string(body), `"trace"`) {
		t.Fatalf("untraced routed response grew a trace field: %s", body)
	}
}

// TestRouterHostileTraceHeaders sends malformed trace ids and checks they
// are replaced, never echoed — in the response header and the slowlog.
func TestRouterHostileTraceHeaders(t *testing.T) {
	routerURL, rt, ids := buildObsCluster(t, 2, Config{SlowThreshold: -1})
	parts := strings.SplitN(ids[0], "\x00", 2)
	runID, target := parts[0], parts[1]
	for _, hostile := range []string{
		"UPPERCASE1234567",
		"short",
		"0123456789abcdef0123456789abcdef", // too long
		"inject\"quote123",
	} {
		req, err := http.NewRequest(http.MethodPost, routerURL+"/v1/query",
			strings.NewReader(fmt.Sprintf(`{"run":%q,"data":%q}`, runID, target)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(client.TraceIDHeader, hostile)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := resp.Header.Get(client.TraceIDHeader)
		if got == hostile || !obs.ValidTraceID(got) {
			t.Fatalf("hostile id %q echoed or replaced badly: %q", hostile, got)
		}
	}
	for _, e := range rt.SlowLog().Entries() {
		if !obs.ValidTraceID(e.TraceID) {
			t.Fatalf("hostile id reached the slowlog: %q", e.TraceID)
		}
	}
}

// TestRouterClusterStats exercises GET /v1/cluster/stats: worker
// registries merge into one cluster snapshot, both unprefixed (totals)
// and under shard.<k>. prefixes, next to the router's own snapshot.
func TestRouterClusterStats(t *testing.T) {
	routerURL, _, ids := buildObsCluster(t, 2, Config{})
	// Put some traffic on both shards so the merged counters are nonzero.
	for _, pair := range ids {
		parts := strings.SplitN(pair, "\x00", 2)
		status, _ := postRaw(t, routerURL, "/v1/query", "",
			fmt.Sprintf(`{"run":%q,"data":%q}`, parts[0], parts[1]))
		if status != http.StatusOK {
			t.Fatalf("query status %d", status)
		}
	}
	status, body := getRaw(t, routerURL, "/v1/cluster/stats", "")
	if status != http.StatusOK {
		t.Fatalf("cluster stats status %d: %s", status, body)
	}
	var resp clusterStatsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ShardsTotal != 2 || resp.ShardsOK != 2 || resp.Partial {
		t.Fatalf("shape unexpected: total=%d ok=%d partial=%v", resp.ShardsTotal, resp.ShardsOK, resp.Partial)
	}
	if len(resp.Shards) != 2 {
		t.Fatalf("want 2 raw shard documents, got %d", len(resp.Shards))
	}
	if resp.Router == nil || resp.Router.Counters["router.requests"] == 0 {
		t.Fatalf("router snapshot missing its own counters: %+v", resp.Router)
	}
	cl := resp.Cluster
	if cl == nil {
		t.Fatal("no merged cluster snapshot")
	}
	total := cl.Counters["http.requests"]
	if total < int64(len(ids)) {
		t.Fatalf("merged http.requests = %d, want >= %d", total, len(ids))
	}
	// The per-shard prefixed series must sum to the unprefixed total.
	if s := cl.Counters["shard.0.http.requests"] + cl.Counters["shard.1.http.requests"]; s != total {
		t.Fatalf("shard-prefixed sum %d != total %d", s, total)
	}
	if cl.Histograms["http.request_ns"].Count == 0 {
		t.Fatal("merged latency histogram empty")
	}
	// Runtime gauges from the workers survive the merge.
	if cl.Gauges["runtime.goroutines"] == 0 {
		t.Fatalf("merged runtime gauges missing: %+v", cl.Gauges)
	}
}

// TestRouterShardsPollVisibility checks the satellite: after a health
// sweep, /v1/shards reports each replica's last poll latency and
// timestamp, and a dead replica's row carries the error.
func TestRouterShardsPollVisibility(t *testing.T) {
	routerURL, rt, _ := buildObsCluster(t, 2, Config{})
	if rt.checkAll(t.Context()) != true {
		t.Fatal("cluster not ready")
	}
	status, body := getRaw(t, routerURL, "/v1/shards", "")
	if status != http.StatusOK {
		t.Fatalf("shards status %d", status)
	}
	var doc struct {
		Shards []shardState `json:"shards"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Shards) != 2 {
		t.Fatalf("want 2 shards, got %d", len(doc.Shards))
	}
	for _, sh := range doc.Shards {
		for _, rep := range sh.Replicas {
			if rep.LastPollNs <= 0 || rep.LastPollUnix <= 0 {
				t.Fatalf("replica %d/%d has no poll reading: %+v", sh.Shard, rep.Replica, rep)
			}
			if rep.LastError != "" {
				t.Fatalf("healthy replica reports error %q", rep.LastError)
			}
		}
	}
	// A failed poll surfaces its error in the replica's row.
	rep := rt.shards[0].replicas[0]
	rep.recordPoll(time.Millisecond, fmt.Errorf("connection refused"))
	durNs, atNs, msg := rep.lastPoll()
	if durNs <= 0 || atNs <= 0 || msg != "connection refused" {
		t.Fatalf("lastPoll after failure: %d %d %q", durNs, atNs, msg)
	}
	_, body = getRaw(t, routerURL, "/v1/shards", "")
	if !strings.Contains(string(body), "connection refused") {
		t.Fatalf("/v1/shards hides the poll error: %s", body)
	}
}

// TestRouterMetricsLabels checks the router's /metrics exposition folds
// the per-shard/per-replica series into labels.
func TestRouterMetricsLabels(t *testing.T) {
	routerURL, rt, ids := buildObsCluster(t, 2, Config{CacheEntries: 16})
	parts := strings.SplitN(ids[0], "\x00", 2)
	body := fmt.Sprintf(`{"run":%q,"data":%q}`, parts[0], parts[1])
	// Twice: a miss then a hit, so per-shard cache counters move.
	for i := 0; i < 2; i++ {
		if status, b := postRaw(t, routerURL, "/v1/query", "", body); status != http.StatusOK {
			t.Fatalf("query status %d: %s", status, b)
		}
	}
	if rt.checkAll(t.Context()) != true {
		t.Fatal("cluster not ready")
	}
	status, metrics := getRaw(t, routerURL, "/metrics", "")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	out := string(metrics)
	for _, want := range []string{
		`zoom_router_up{replica="0",shard="0"} 1`,
		`zoom_router_up{replica="0",shard="1"} 1`,
		`zoom_router_breaker_open{replica="0",shard="0"} 0`,
		"zoom_router_poll_ns{",
		`zoom_router_attempts{replica="0",`,
		"# TYPE zoom_runtime_goroutines gauge",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, out)
		}
	}
	// One shard took both requests: its labeled hit counter moved.
	if !strings.Contains(out, `zoom_router_cache_hits{shard="0"} `) &&
		!strings.Contains(out, `zoom_router_cache_hits{shard="1"} `) {
		t.Fatalf("no per-shard cache-hit series:\n%s", out)
	}
}
