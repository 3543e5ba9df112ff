package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
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

func TestParseWorkers(t *testing.T) {
	cases := []struct {
		in   string
		want [][]string
	}{
		{"a", [][]string{{"a"}}},
		{"a,b", [][]string{{"a"}, {"b"}}}, // legacy: commas separate shards
		{"a,b;c,d", [][]string{{"a", "b"}, {"c", "d"}}},
		{"a;b", [][]string{{"a"}, {"b"}}},
		{"a,b;", [][]string{{"a", "b"}}}, // trailing ; forces grouped
		{" a , b ; c ", [][]string{{"a", "b"}, {"c"}}},
		{"", nil},
		{";;", nil},
	}
	for _, tc := range cases {
		if got := ParseWorkers(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseWorkers(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// buildReplicatedCluster is buildCluster with reps workers per shard (all
// replicas of a shard serve the same shard warehouse) and a caller-shaped
// router config. It returns the per-shard replica servers so tests can
// kill specific processes.
func buildReplicatedCluster(t *testing.T, n, reps int, specs []*spec.Spec, runs []*run.Run, shape func(*Config)) (string, string, *Router, [][]*httptest.Server) {
	t.Helper()
	ring, err := NewRing(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	full := warehouse.New(0)
	// Each replica gets its own warehouse loaded with the same shard's
	// runs — real replicas are separate processes over identical snapshot
	// copies, and sharing one in-process warehouse would leak memoized
	// closure state between siblings.
	shardWh := make([][]*warehouse.Warehouse, n)
	for i := range shardWh {
		for j := 0; j < reps; j++ {
			shardWh[i] = append(shardWh[i], warehouse.New(0))
		}
	}
	for _, sp := range specs {
		if err := full.RegisterSpec(sp); err != nil {
			t.Fatal(err)
		}
		for _, g := range shardWh {
			for _, w := range g {
				if err := w.RegisterSpec(sp); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, r := range runs {
		if err := full.LoadRun(r); err != nil {
			t.Fatal(err)
		}
		for _, w := range shardWh[ring.Place(r.ID())] {
			if err := w.LoadRun(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	single := newWorker(t, full)
	groups := make([][]string, n)
	servers := make([][]*httptest.Server, n)
	for i, g := range shardWh {
		for _, w := range g {
			ts := newWorker(t, w)
			servers[i] = append(servers[i], ts)
			groups[i] = append(groups[i], ts.URL)
		}
	}
	cfg := Config{Shards: groups}
	if shape != nil {
		shape(&cfg)
	}
	rt, err := New(obs.NewRegistry(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	return single.URL, rts.URL, rt, servers
}

// killServer force-closes a replica's client connections and listener so
// in-flight and future requests to it fail at the transport level.
func killServer(ts *httptest.Server) {
	ts.CloseClientConnections()
	ts.Close()
}

// TestRouterReplicaFailover kills the preferred replica of every shard
// and checks the tentpole's availability claim: every run-addressed
// request still answers 200 via the sibling replica, the failover counter
// moves, and the router still reports ready.
func TestRouterReplicaFailover(t *testing.T) {
	specs, runs, infos := buildCorpus(t, []gen.RunClass{gen.Small()})
	_, routerURL, rt, servers := buildReplicatedCluster(t, 2, 2, specs, runs, nil)

	for i := range servers {
		killServer(servers[i][0])
	}
	for _, info := range infos {
		status, b := postRaw(t, routerURL, "/v1/query", "",
			fmt.Sprintf(`{"run":%q,"data":%q}`, info.id, info.targets[0]))
		if status != http.StatusOK {
			t.Fatalf("query %s with preferred replica dead: status %d body %s", info.id, status, b)
		}
	}
	if rt.failovers.Value() == 0 {
		t.Fatal("failover counter did not move")
	}

	// Scatter-gather also fails over: the catalog is whole, not partial.
	status, b := getRaw(t, routerURL, "/v1/runs", "")
	if status != http.StatusOK || strings.Contains(string(b), `"partial"`) {
		t.Fatalf("runs with preferred replicas dead: status %d body %s", status, b)
	}

	// Live readiness: every shard still has a ready replica.
	status, b = getRaw(t, routerURL, "/readyz", "")
	if status != http.StatusOK {
		t.Fatalf("readyz with one replica per shard dead: status %d body %s", status, b)
	}
	for _, st := range rt.shardStates() {
		if !st.Ready {
			t.Fatalf("shard %d not ready with a live sibling: %+v", st.Shard, st)
		}
		if st.Replicas[0].Ready {
			t.Fatalf("shard %d dead replica still reported ready", st.Shard)
		}
	}

	// Kill the sibling too: now the shard fails fast with a 502.
	for i := range servers {
		killServer(servers[i][1])
	}
	deadInfo := infos[0]
	var sawGateway bool
	for i := 0; i < rt.cfg.BreakerThreshold+1; i++ {
		status, _ = postRaw(t, routerURL, "/v1/query", "",
			fmt.Sprintf(`{"run":%q,"data":%q}`, deadInfo.id, deadInfo.targets[0]))
		if status == http.StatusBadGateway {
			sawGateway = true
		}
	}
	if !sawGateway {
		t.Fatal("whole shard dead: expected 502s")
	}
}

// TestRouterHedging makes the preferred replica slow and checks that a
// hedged second attempt on the sibling wins: the answer comes back fast,
// correct, and the hedge counters move.
func TestRouterHedging(t *testing.T) {
	specs, runs, infos := buildCorpus(t, []gen.RunClass{gen.Small()})

	const slowFor = 500 * time.Millisecond
	_, routerURL, rt, servers := buildReplicatedCluster(t, 1, 2, specs, runs, func(cfg *Config) {
		cfg.HedgeDelay = 25 * time.Millisecond
	})

	// Interpose a delay on the preferred replica's query endpoint only
	// (health stays fast so the replica remains in rotation — a slow
	// worker, not a dead one).
	slowInner := servers[0][0].Config.Handler
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			time.Sleep(slowFor)
		}
		slowInner.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)
	rt.shards[0].replicas[0].base = slow.URL
	rt.shards[0].replicas[0].cl = client.New(slow.URL, client.Options{Timeout: -1})

	info := infos[0]
	start := time.Now()
	status, b := postRaw(t, routerURL, "/v1/query", "",
		fmt.Sprintf(`{"run":%q,"data":%q}`, info.id, info.targets[0]))
	elapsed := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("hedged query: status %d body %s", status, b)
	}
	if elapsed >= slowFor {
		t.Fatalf("hedged query took %v, want well under the %v straggler", elapsed, slowFor)
	}
	if rt.hedges.Value() == 0 || rt.hedgeWins.Value() == 0 {
		t.Fatalf("hedge counters did not move: hedges=%d wins=%d",
			rt.hedges.Value(), rt.hedgeWins.Value())
	}
}

// TestRouterResponseCache drives the cache through its whole life cycle:
// miss and store, hit with the trace id rewritten to the current
// request's, and invalidation when a health poll observes the worker's
// generation change.
func TestRouterResponseCache(t *testing.T) {
	specs, runs, infos := buildCorpus(t, []gen.RunClass{gen.Small()})
	full := warehouse.New(0)
	for _, sp := range specs {
		if err := full.RegisterSpec(sp); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range runs {
		if err := full.LoadRun(r); err != nil {
			t.Fatal(err)
		}
	}
	s, err := server.New(obs.NewRegistry(), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng := provenance.NewEngine(full)
	s.SetEngine(eng)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	rt, err := New(obs.NewRegistry(), Config{Workers: []string{ts.URL}, CacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	ctx := context.Background()
	rt.checkAll(ctx) // record the baseline generation

	info := infos[0]
	body := fmt.Sprintf(`{"run":%q,"data":%q}`, info.id, info.targets[0])

	status1, b1 := postRaw(t, rts.URL, "/v1/query", "00000000000000a1", body)
	if status1 != http.StatusOK {
		t.Fatalf("first query: status %d body %s", status1, b1)
	}
	if rt.cacheMisses.Value() != 1 || rt.cacheHits.Value() != 0 {
		t.Fatalf("after first query: misses=%d hits=%d", rt.cacheMisses.Value(), rt.cacheHits.Value())
	}
	if rt.cache.Len() != 1 {
		t.Fatalf("cache entries %d, want 1", rt.cache.Len())
	}

	status2, b2 := postRaw(t, rts.URL, "/v1/query", "00000000000000a2", body)
	if status2 != http.StatusOK {
		t.Fatalf("second query: status %d body %s", status2, b2)
	}
	if rt.cacheHits.Value() != 1 {
		t.Fatalf("second query did not hit the cache: hits=%d", rt.cacheHits.Value())
	}
	// The cached replay is the first answer with only the trace id
	// swapped for the current request's.
	want := bytes.Replace(b1, []byte("00000000000000a1"), []byte("00000000000000a2"), 1)
	if !bytes.Equal(b2, want) {
		t.Fatalf("cached replay differs beyond the trace id\nfirst:  %s\nreplay: %s", b1, b2)
	}

	// ?trace=1 must bypass the cache: the inline trace is per-request.
	status3, b3 := postRaw(t, rts.URL, "/v1/query?trace=1", "00000000000000a3", body)
	if status3 != http.StatusOK || !strings.Contains(string(b3), `"trace"`) {
		t.Fatalf("traced query: status %d", status3)
	}
	if rt.cacheHits.Value() != 1 {
		t.Fatalf("traced query must not be served from cache: hits=%d", rt.cacheHits.Value())
	}

	// The worker reloads its warehouse: the generation changes, the next
	// health poll bumps the shard epoch, and the cached entry is dropped.
	s.SetEngine(eng)
	rt.checkAll(ctx)
	if rt.cacheInvals.Value() == 0 {
		t.Fatal("generation change did not count an invalidation")
	}
	status4, _ := postRaw(t, rts.URL, "/v1/query", "00000000000000a4", body)
	if status4 != http.StatusOK {
		t.Fatalf("post-invalidation query: status %d", status4)
	}
	if rt.cacheHits.Value() != 1 || rt.cacheMisses.Value() != 2 {
		t.Fatalf("post-invalidation query should miss: hits=%d misses=%d",
			rt.cacheHits.Value(), rt.cacheMisses.Value())
	}
}

// TestRespCacheBounds unit-tests the LRU's entry and byte bounds.
func TestRespCacheBounds(t *testing.T) {
	c := newRespCache(2, 0)
	mk := func(i int) *cacheEntry {
		return &cacheEntry{path: "/p", reqBody: []byte(fmt.Sprintf("req%d", i)), body: []byte("resp")}
	}
	c.store(mk(1))
	c.store(mk(2))
	c.store(mk(3)) // evicts 1
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}
	if e, _ := c.lookup("/p", []byte("req1"), 0); e != nil {
		t.Fatal("oldest entry should be evicted")
	}
	if e, _ := c.lookup("/p", []byte("req3"), 0); e == nil {
		t.Fatal("newest entry missing")
	}
	// Epoch mismatch drops the entry and reports stale.
	if _, stale := c.lookup("/p", []byte("req3"), 7); !stale {
		t.Fatal("epoch mismatch should report stale")
	}
	if e, _ := c.lookup("/p", []byte("req3"), 7); e != nil {
		t.Fatal("stale entry should be gone")
	}

	// Byte bound: tiny budget keeps only the newest entry.
	c2 := newRespCache(100, 16)
	c2.store(&cacheEntry{path: "/p", reqBody: []byte("aaaaaaaa"), body: []byte("bbbbbbbb")}) // 16 bytes
	c2.store(&cacheEntry{path: "/p", reqBody: []byte("cccccccc"), body: []byte("dddddddd")}) // evicts first
	if c2.Len() != 1 {
		t.Fatalf("byte-bounded len %d, want 1", c2.Len())
	}
}

// TestRespCacheCollision forces two requests onto one 64-bit key: the
// stored (path, body) check must turn the second into a miss, never into the
// first one's answer.
func TestRespCacheCollision(t *testing.T) {
	c := newRespCache(8, 0)
	c.store(&cacheEntry{path: "/p", reqBody: []byte("reqA"), body: []byte("answerA")})
	c.entries[cacheKey("/p", []byte("reqB"))] = c.entries[cacheKey("/p", []byte("reqA"))]
	c.entries[cacheKey("/q", []byte("reqA"))] = c.entries[cacheKey("/p", []byte("reqA"))]
	if e, _ := c.lookup("/p", []byte("reqB"), 0); e != nil {
		t.Fatalf("colliding body served %q", e.body)
	}
	if e, _ := c.lookup("/q", []byte("reqA"), 0); e != nil {
		t.Fatalf("colliding path served %q", e.body)
	}
	if e, _ := c.lookup("/p", []byte("reqA"), 0); e == nil || string(e.body) != "answerA" {
		t.Fatal("the stored request no longer hits")
	}
	if cacheKey("/v1/query", []byte("x")) == cacheKey("/v1/batch", []byte("x")) {
		t.Fatal("the path is not part of the key")
	}
}

// TestCacheEntryReplay checks the hit path's one rewrite: the current trace
// id goes where the stored one was quoted — compact or spaced output alike —
// and a body that never quoted it is replayed as stored.
func TestCacheEntryReplay(t *testing.T) {
	const stored, current = "00000000000000a1", "00000000000000b2"
	for _, tc := range []struct{ name, body, want string }{
		{"compact", `{"trace_id":"` + stored + `","run":"r"}`, `{"trace_id":"` + current + `","run":"r"}`},
		{"spaced", "{\n  \"trace_id\": \"" + stored + "\"\n}", "{\n  \"trace_id\": \"" + current + "\"\n}"},
		{"first quoted occurrence only", `{"trace_id":"` + stored + `","data":"` + stored + `"}`, `{"trace_id":"` + current + `","data":"` + stored + `"}`},
		{"no id", `{"run":"r"}`, `{"run":"r"}`},
	} {
		ent := &cacheEntry{contentType: "application/json", body: []byte(tc.body)}
		ent.markTraceID(stored)
		rec := httptest.NewRecorder()
		if err := ent.replay(rec, current); err != nil {
			t.Fatal(err)
		}
		if rec.Body.String() != tc.want || rec.Header().Get("Content-Length") != strconv.Itoa(len(tc.want)) {
			t.Errorf("%s: replayed %q (Content-Length %s), want %q", tc.name, rec.Body.String(), rec.Header().Get("Content-Length"), tc.want)
		}
		if string(ent.body) != tc.body {
			t.Errorf("%s: replay modified the shared body", tc.name)
		}
	}
}

// discardWriter is a reusable http.ResponseWriter that keeps nothing, so an
// AllocsPerRun over Handler() counts the router's allocations, not the
// recorder's.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }
func (w *discardWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// TestRouterCacheHitAllocs pins the router half of the wire path's alloc
// budget. A cache lookup that hits allocates nothing (the key is hashed
// from the body in place). A whole hit through Handler() — trace, body
// read, placement peek, spans, headers, replay — measured 33 allocations
// when the relay was rewritten; the ceiling leaves 2 spare for misses of
// encoding/json's pooled scanner, which the race detector forces at random.
// None of them may be the answer: a hit is written from the cached slice,
// so the bytes allocated per hit stay far below the answer's size.
func TestRouterCacheHitAllocs(t *testing.T) {
	const hitCeiling = 35

	specs, runs, infos := buildCorpus(t, []gen.RunClass{gen.Medium()})
	_, _, rt, _ := buildReplicatedCluster(t, 2, 1, specs, runs, func(cfg *Config) { cfg.CacheEntries = 16 })
	h := rt.Handler()
	body := []byte(fmt.Sprintf(`{"run":%q,"data":%q}`, infos[len(infos)-1].id, infos[len(infos)-1].targets[0]))
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/query", nil)
	req.Body = io.NopCloser(rd)
	w := &discardWriter{h: make(http.Header)}
	serve := func() {
		rd.Reset(body)
		w.n = 0
		h.ServeHTTP(w, req)
	}
	serve() // miss: forwards and stores
	stored := w.n
	if rt.cache.Len() != 1 || w.status != http.StatusOK {
		t.Fatalf("priming request: status %d, %d cache entries", w.status, rt.cache.Len())
	}

	if allocs := testing.AllocsPerRun(100, func() {
		if e, _ := rt.cache.lookup("/v1/query", body, rt.shards[rt.ring.Place(infos[len(infos)-1].id)].epoch.Load()); e == nil {
			t.Fatal("lookup missed")
		}
	}); allocs != 0 {
		t.Fatalf("cache lookup on a hit: %v allocs/op, want 0", allocs)
	}

	hits := rt.cacheHits.Value()
	allocs := testing.AllocsPerRun(100, serve)
	if rt.cacheHits.Value()-hits < 100 || w.n != stored {
		t.Fatalf("runs were not cache hits of the stored %d bytes: hits +%d, wrote %d", stored, rt.cacheHits.Value()-hits, w.n)
	}
	if allocs > hitCeiling {
		t.Fatalf("cache hit through Handler(): %v allocs/op for a %d-byte answer, ceiling %d", allocs, stored, hitCeiling)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	perHit := int(after.TotalAlloc-before.TotalAlloc) / 100
	if perHit > stored/4 {
		t.Fatalf("cache hit through Handler(): %d B/op for a %d-byte answer; the answer is being copied", perHit, stored)
	}
	t.Logf("cache hit through Handler(): %v allocs/op, %d B/op for a %d-byte answer", allocs, perHit, stored)
}

// TestRouterRequestTooLarge checks the oversized-body bugfix on both
// sides of the hop: the router and the worker answer 413 (not 400) with
// the standard error body.
func TestRouterRequestTooLarge(t *testing.T) {
	specs, runs, _ := buildCorpus(t, []gen.RunClass{gen.Small()})
	singleURL, routerURL, _ := buildCluster(t, 2, specs, runs)
	big := fmt.Sprintf(`{"run":"r","data":%q}`, strings.Repeat("a", maxBodyBytes))
	for _, base := range []string{routerURL, singleURL} {
		status, body := postRaw(t, base, "/v1/query", "0000000000000bad", big)
		if status != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversized body status %d, want 413 (body %.120s)", base, status, body)
		}
		if !strings.Contains(string(body), `"error"`) || !strings.Contains(string(body), "0000000000000bad") {
			t.Fatalf("%s: 413 body missing error/trace id: %s", base, body)
		}
	}
}

// TestRouterGatherCancel checks the semaphore bugfix: a cancelled
// scatter-gather returns promptly with context errors for unvisited
// shards instead of blocking on the fanout semaphore behind a hung
// worker.
func TestRouterGatherCancel(t *testing.T) {
	hang := func() *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			<-r.Context().Done()
		}))
	}
	w0, w1 := hang(), hang()
	t.Cleanup(w0.Close)
	t.Cleanup(w1.Close)
	rt, err := New(obs.NewRegistry(), Config{
		Workers:       []string{w0.URL, w1.URL},
		Fanout:        1, // the second shard must wait for the first's slot
		GatherTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, fails := rt.gather(ctx, func(ctx context.Context, cl *client.Client) (any, error) {
		return cl.Runs(ctx)
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled gather took %v, want prompt return", elapsed)
	}
	if len(fails) != 2 {
		t.Fatalf("cancelled gather reported %d failures, want 2: %+v", len(fails), fails)
	}
	var sawCtx bool
	for _, f := range fails {
		if strings.Contains(f.Error, "context canceled") {
			sawCtx = true
		}
	}
	if !sawCtx {
		t.Fatalf("no shard reported the context error: %+v", fails)
	}
}

// TestRouterCopyErrors checks the relay contract for a response whose
// length is known. A worker that dies mid-body (Content-Length promised,
// connection cut short) costs the client a well-formed 502 naming the shard
// and replica — never a committed 200 with half a document — is counted in
// router.copy_errors, and leaves nothing in the cache. A worker that keeps
// its promise is relayed byte for byte with the length stated.
func TestRouterCopyErrors(t *testing.T) {
	const whole = `{"trace_id":"00000000000000c1","run":"r","kind":"deep"}` + "\n"
	var short atomic.Bool
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/readyz" {
			fmt.Fprintln(w, `{"ready":true,"runs_loaded":1,"runs_total":1}`)
			return
		}
		if !short.Load() {
			w.Header().Set("Content-Length", strconv.Itoa(len(whole)))
			fmt.Fprint(w, whole)
			return
		}
		// Promise more bytes than are sent; the server closes the
		// connection on the short write.
		w.Header().Set("Content-Length", "100000")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		fmt.Fprint(w, `{"trace_id":"xx"`)
	}))
	t.Cleanup(worker.Close)
	rt, err := New(obs.NewRegistry(), Config{Workers: []string{worker.URL}, CacheEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	post := func(id, body string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, rts.URL+"/v1/query", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(TraceIDHeader, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("router did not answer in HTTP: %v", err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("router's own response is truncated: %v", err)
		}
		return resp, b
	}

	resp, got := post("00000000000000c1", `{"run":"r","data":"whole"}`)
	if resp.StatusCode != http.StatusOK || string(got) != whole {
		t.Fatalf("complete body: status %d, relayed %q, want the worker's %q", resp.StatusCode, got, whole)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(whole)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("complete body: Content-Length %q, Transfer-Encoding %v; want the length stated", cl, resp.TransferEncoding)
	}
	if rt.copyErrors.Value() != 0 || rt.cache.Len() != 1 {
		t.Fatalf("complete body: copy_errors=%d cache entries=%d, want 0 and 1", rt.copyErrors.Value(), rt.cache.Len())
	}

	short.Store(true)
	resp, got = post("00000000000000c2", `{"run":"r","data":"short"}`)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("short body: status %d body %q, want 502", resp.StatusCode, got)
	}
	var eb errorBody
	if err := json.Unmarshal(got, &eb); err != nil {
		t.Fatalf("short body: 502 body %q is not JSON: %v", got, err)
	}
	if eb.TraceID != "00000000000000c2" || !strings.Contains(eb.Error, "shard 0 replica 0 ("+worker.URL+")") {
		t.Fatalf("short body: 502 does not carry the trace id and name the shard and replica: %+v", eb)
	}
	if rt.copyErrors.Value() != 1 {
		t.Fatalf("short body: router.copy_errors = %d, want 1", rt.copyErrors.Value())
	}
	if rt.cache.Len() != 1 {
		t.Fatalf("short body was cached: %d entries, want the 1 from before", rt.cache.Len())
	}
}

// TestConcurrentBreakerHalfOpenReadmit races the per-replica breaker's
// open/half-open/re-admit cycle against in-flight forwards and the
// health loop, under -race (the "Concurrent" name opts it into the race
// CI job). A flaky preferred replica cycles between cutting connections
// and serving; the sibling stays healthy, so with failover every query
// must answer 200 throughout.
func TestConcurrentBreakerHalfOpenReadmit(t *testing.T) {
	specs, runs, infos := buildCorpus(t, []gen.RunClass{gen.Small()})

	_, routerURL, rt, servers := buildReplicatedCluster(t, 1, 2, specs, runs, func(cfg *Config) {
		cfg.BreakerThreshold = 2
		cfg.BreakerCooldown = 20 * time.Millisecond // fast half-open cycles
		cfg.HealthInterval = 10 * time.Millisecond
	})

	// Replace the preferred replica with a flaky front over the same
	// warehouse: while down it hijacks and drops every connection
	// (transport error), while up it serves normally.
	var down atomic.Bool
	inner := servers[0][0].Config.Handler
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			panic(http.ErrAbortHandler)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)
	rt.shards[0].replicas[0].base = flaky.URL
	rt.shards[0].replicas[0].cl = client.New(flaky.URL, client.Options{Timeout: -1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rt.HealthLoop(ctx)
	go func() {
		for ctx.Err() == nil {
			down.Store(!down.Load())
			time.Sleep(15 * time.Millisecond)
		}
	}()

	const workers = 4
	const iters = 40
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				info := infos[(w+i)%len(infos)]
				status, b := postRaw(t, routerURL, "/v1/query", "",
					fmt.Sprintf(`{"run":%q,"data":%q}`, info.id, info.targets[0]))
				if status != http.StatusOK {
					errc <- fmt.Errorf("worker %d iter %d: status %d body %.200s", w, i, status, b)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
