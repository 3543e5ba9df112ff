package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
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
	shards := make([][]string, n)
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
		shards[i] = []string{ts.URL}
	}
	cfg.Shards = shards
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

// headerTree decodes the span tree a traced response carries in its
// X-Zoom-Trace header, which must be at most obs.MaxHeaderTree bytes of
// printable ASCII.
func headerTree(t *testing.T, h http.Header) *obs.SpanNode {
	t.Helper()
	v := h.Get(client.TraceHeader)
	if len(v) > obs.MaxHeaderTree || strings.IndexFunc(v, func(r rune) bool { return r < 0x20 || r > 0x7e }) >= 0 {
		t.Fatalf("X-Zoom-Trace is %d bytes, not all printable ASCII or over the bound: %.200q", len(v), v)
	}
	var n obs.SpanNode
	if err := json.Unmarshal([]byte(v), &n); err != nil {
		t.Fatalf("X-Zoom-Trace %.200q does not decode: %v", v, err)
	}
	return &n
}

// workerRequests reads zoom_http_requests off a worker's /metrics, which is
// not itself a counted API route.
func workerRequests(t *testing.T, base string) string {
	t.Helper()
	_, b := getRaw(t, base, "/metrics", "")
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "zoom_http_requests "); ok {
			return v
		}
	}
	t.Fatal("worker /metrics has no zoom_http_requests")
	return ""
}

// TestRouterStitchedTrace drives the traced relay end to end. A traced
// miss through the router answers the untraced bytes and carries ONE span
// tree in its X-Zoom-Trace header: the router's spans (route.pick,
// cache.lookup, replica.attempt) with the worker's engine spans adopted
// under the winning attempt; the same tree lands in the router slowlog. The
// same traced query again is a cache hit that never reaches the worker,
// and its tree says so.
func TestRouterStitchedTrace(t *testing.T) {
	routerURL, rt, ids := buildObsCluster(t, 2, Config{
		CacheEntries:  16,
		SlowThreshold: -1, // log every request
	})
	parts := strings.SplitN(ids[0], "\x00", 2)
	runID, target := parts[0], parts[1]
	query := fmt.Sprintf(`{"run":%q,"data":%q}`, runID, target)
	workerURL := rt.shards[rt.ring.Place(runID)].replicas[0].base
	const id = "0123456789abcdef"

	status, body, hdr := postResp(t, routerURL, "/v1/query?trace=1", id, query)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if gotID := hdr.Get(client.TraceIDHeader); gotID != id {
		t.Fatalf("trace id %q, want %q", gotID, id)
	}
	// The tree is in the header only: the traced answer is the worker's
	// untraced one, byte for byte.
	if _, untraced := postRaw(t, workerURL, "/v1/query", "", query); !bytes.Equal(body, untraced) {
		t.Fatalf("traced routed answer differs from the untraced one\ntraced:   %s\nuntraced: %s", body, untraced)
	}
	tree := headerTree(t, hdr)
	if tree.Name != "POST /v1/query" {
		t.Fatalf("stitched root is %q, want the router route", tree.Name)
	}

	pick := tree.Find("route.pick")
	if pick == nil || pick.Tags["run"] != runID || pick.Tags["shard"] == "" {
		t.Fatalf("route.pick missing or untagged: %+v", pick)
	}
	if look := tree.Find("cache.lookup"); look == nil || look.Tags["outcome"] != "miss" {
		t.Fatalf("cache.lookup missing or outcome != miss: %+v", look)
	}
	att := tree.Find("replica.attempt")
	if att == nil {
		t.Fatalf("no replica.attempt span: %+v", tree)
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

	// The same traced query again is a router cache hit: the worker is not
	// asked, the bytes are the miss's, and the tree shows the hit and no
	// attempt.
	hits, before := rt.cacheHits.Value(), workerRequests(t, workerURL)
	status, again, hdr := postResp(t, routerURL, "/v1/query?trace=1", "", query)
	if status != http.StatusOK || !bytes.Equal(again, body) {
		t.Fatalf("repeated traced query: status %d, answer differs from the miss's: %s", status, again)
	}
	if rt.cacheHits.Value() != hits+1 || workerRequests(t, workerURL) != before {
		t.Fatalf("repeated traced query: router.cache_hits +%d, worker http.requests %s -> %s; want +1 and unmoved",
			rt.cacheHits.Value()-hits, before, workerRequests(t, workerURL))
	}
	hit := headerTree(t, hdr)
	if look := hit.Find("cache.lookup"); look == nil || look.Tags["outcome"] != "hit" || hit.Find("replica.attempt") != nil {
		t.Fatalf("cache hit's tree: %+v, want cache.lookup outcome=hit and no replica.attempt", hit)
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

	// An untraced request through the same router gets no tree: tracing is
	// strictly opt-in.
	status, _, hdr = postResp(t, routerURL, "/v1/query", "", query)
	if status != http.StatusOK || hdr.Get(client.TraceHeader) != "" {
		t.Fatalf("untraced request: status %d, tree %q", status, hdr.Get(client.TraceHeader))
	}
}

// treeTap records the X-Zoom-Trace header a handler sets as it commits the
// status, before a byte of the response leaves.
type treeTap struct {
	http.ResponseWriter
	seen func(tree string)
}

func (w treeTap) WriteHeader(code int) {
	w.seen(w.Header().Get(client.TraceHeader))
	w.ResponseWriter.WriteHeader(code)
}

// TestRouterHostileTraceStrings routes traced batches on the paper's
// running example whose second data id is hostile header material: DEL, a
// two-byte rune, an astral rune, a 200 KB id. Every answer is the single
// node's status and body byte for byte; every X-Zoom-Trace on both hops is
// at most 256 KiB of printable ASCII that decodes, the 200 KB id's worker
// tree cut to its root and tagged truncated; and no request counts against
// the replica.
func TestRouterHostileTraceStrings(t *testing.T) {
	fig2 := func() *warehouse.Warehouse {
		w := warehouse.New(0)
		if err := w.RegisterSpec(spec.Phylogenomics()); err != nil {
			t.Fatal(err)
		}
		if err := w.LoadRun(run.Figure2()); err != nil {
			t.Fatal(err)
		}
		return w
	}
	single := newWorker(t, fig2())
	s, err := server.New(obs.NewRegistry(), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetEngine(provenance.NewEngine(fig2()))
	h := s.Handler()
	var mu sync.Mutex
	var workerTrees []string
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(treeTap{w, func(tree string) {
			mu.Lock()
			workerTrees = append(workerTrees, tree)
			mu.Unlock()
		}}, r)
	}))
	t.Cleanup(worker.Close)
	rt, err := New(obs.NewRegistry(), Config{Shards: [][]string{{worker.URL}}, CacheEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)

	big := strings.Repeat("é", 100_000) // 200 KB, 600 KB once escaped
	for i, id := range []string{"d447", "\x7f", "é", "\U0001F600", big} {
		// One worker, so the batch fails at its second id, deterministically.
		body, err := json.Marshal(map[string]any{"run": "fig2", "data": []string{"d447", id}, "workers": 1})
		if err != nil {
			t.Fatal(err)
		}
		wantStatus, want := postRaw(t, single.URL, "/v1/batch", "", string(body))
		status, got, hdr := postResp(t, rts.URL, "/v1/batch?trace=1", "", string(body))
		if status != wantStatus || !bytes.Equal(got, want) {
			t.Fatalf("id %.12q: routed %d %.120s, single node %d %.120s", id, status, got, wantStatus, want)
		}
		routed := headerTree(t, hdr)
		mu.Lock()
		if len(workerTrees) != i+1 {
			mu.Unlock()
			t.Fatalf("id %.12q: the worker committed %d traced answers, want %d", id, len(workerTrees), i+1)
		}
		wh := http.Header{}
		wh.Set(client.TraceHeader, workerTrees[i])
		mu.Unlock()
		wtree := headerTree(t, wh)
		att := routed.Find("replica.attempt")
		if att == nil || len(att.Children) != 1 {
			t.Fatalf("id %.12q: the routed tree did not adopt the worker's: %+v", id, routed)
		}
		cut := wtree.Tags["truncated"]
		if (cut != "") != (id == big) || att.Children[0].Tags["truncated"] != cut {
			t.Fatalf("id %.12q: worker tree truncated=%q, adopted truncated=%q; want a cut for the 200 KB id only",
				id, cut, att.Children[0].Tags["truncated"])
		}
	}
	if n := rt.fwdErrors.Value(); n != 0 {
		t.Fatalf("router.forward_errors = %d, want 0", n)
	}
	for _, rep := range rt.shards[0].replicas {
		if rep.breaker.Value() != 0 || rep.errors.Value() != 0 {
			t.Fatalf("replica %d: breaker_open=%d errors=%d, want 0 and 0", rep.index, rep.breaker.Value(), rep.errors.Value())
		}
	}
}

// TestRouterUnreadableWorkerTrace: a worker whose X-Zoom-Trace does not
// decode, or is over the 256 KiB bound, has its answer relayed byte for
// byte with its status; only the attempt span says the tree was unreadable.
func TestRouterUnreadableWorkerTrace(t *testing.T) {
	const answer = `{"run":"r","data":"d1","kind":"deep"}` + "\n"
	for name, tree := range map[string]string{
		"garbage":   "{not json",
		"oversized": `{"name":"` + strings.Repeat("a", 300<<10) + `"}`,
	} {
		t.Run(name, func(t *testing.T) {
			worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				_, _ = io.Copy(io.Discard, r.Body)
				w.Header().Set("Content-Type", "application/json")
				w.Header().Set(client.TraceHeader, tree)
				w.Header().Set("Content-Length", strconv.Itoa(len(answer)))
				_, _ = io.WriteString(w, answer)
			}))
			t.Cleanup(worker.Close)
			rt, err := New(obs.NewRegistry(), Config{Shards: [][]string{{worker.URL}}})
			if err != nil {
				t.Fatal(err)
			}
			rts := httptest.NewServer(rt.Handler())
			t.Cleanup(rts.Close)
			status, got, hdr := postResp(t, rts.URL, "/v1/query?trace=1", "", `{"run":"r","data":"d1"}`)
			if status != http.StatusOK || string(got) != answer {
				t.Fatalf("status %d, body %q; want the worker's 200 %q", status, got, answer)
			}
			att := headerTree(t, hdr).Find("replica.attempt")
			if att == nil || att.Tags["worker_trace"] != "unreadable" || att.Tags["outcome"] != "won" || len(att.Children) != 0 {
				t.Fatalf("attempt span %+v, want outcome=won, worker_trace=unreadable and no adopted tree", att)
			}
			if rt.fwdErrors.Value() != 0 {
				t.Fatalf("router.forward_errors = %d, want 0", rt.fwdErrors.Value())
			}
		})
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
	// Each key is asked twice; the trailing space makes the second body a
	// router cache miss, so it reaches its worker as a closure-cache hit.
	for _, pair := range ids {
		parts := strings.SplitN(pair, "\x00", 2)
		for _, pad := range []string{"", " "} {
			status, _ := postRaw(t, routerURL, "/v1/query", "",
				fmt.Sprintf(`{"run":%q,"data":%q}`, parts[0], parts[1])+pad)
			if status != http.StatusOK {
				t.Fatalf("query status %d", status)
			}
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
	// The workers' closure-cache counters merge like any other counter.
	if h, m := cl.Counters["cache.hits"], cl.Counters["cache.misses"]; h != int64(len(ids)) || m != int64(len(ids)) {
		t.Fatalf("merged cache.hits/misses = %d/%d, want %d each", h, m, len(ids))
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
