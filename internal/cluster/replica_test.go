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

	"repro/internal/core"
	"repro/internal/edge"
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
	for i := int32(0); i < rt.breakerThreshold+1; i++ {
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
// miss and store, a hit that is the miss's answer byte for byte under the
// current request's trace id (in the header), and invalidation when a
// health poll observes the worker's generation change.
func TestRouterResponseCache(t *testing.T) {
	specs, runs, infos := buildCorpus(t, []gen.RunClass{gen.Small()})
	full := loadAll(t, specs, runs)
	s, err := server.New(obs.NewRegistry(), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng := provenance.NewEngine(full)
	s.SetEngine(eng)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	rt, err := New(obs.NewRegistry(), Config{Shards: [][]string{{ts.URL}}, CacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	ctx := context.Background()
	rt.checkAll(ctx) // record the baseline generation

	info := infos[0]
	body := fmt.Sprintf(`{"run":%q,"data":%q}`, info.id, info.targets[0])

	status1, b1, id1 := postTraced(t, rts.URL, "/v1/query", "00000000000000a1", body)
	if status1 != http.StatusOK || id1 != "00000000000000a1" {
		t.Fatalf("first query: status %d, trace id %q, body %s", status1, id1, b1)
	}
	if rt.cacheMisses.Value() != 1 || rt.cacheHits.Value() != 0 {
		t.Fatalf("after first query: misses=%d hits=%d", rt.cacheMisses.Value(), rt.cacheHits.Value())
	}
	if rt.cache.Len() != 1 {
		t.Fatalf("cache entries %d, want 1", rt.cache.Len())
	}

	status2, b2, id2 := postTraced(t, rts.URL, "/v1/query", "00000000000000a2", body)
	if status2 != http.StatusOK || id2 != "00000000000000a2" {
		t.Fatalf("second query: status %d, trace id %q, body %s", status2, id2, b2)
	}
	if rt.cacheHits.Value() != 1 {
		t.Fatalf("second query did not hit the cache: hits=%d", rt.cacheHits.Value())
	}
	// The hit is the miss's answer byte for byte; only the headers name
	// the request.
	if !bytes.Equal(b2, b1) {
		t.Fatalf("cached answer differs from the forwarded one\nmiss: %s\nhit:  %s", b1, b2)
	}

	// A traced query is looked up like any other: its tree travels in a
	// header, so the hit is the same bytes, and the tree shows the hit.
	status3, b3, h3 := postResp(t, rts.URL, "/v1/query?trace=1", "00000000000000a3", body)
	if status3 != http.StatusOK || !bytes.Equal(b3, b1) {
		t.Fatalf("traced query: status %d, answer differs from the cached one: %s", status3, b3)
	}
	if rt.cacheHits.Value() != 2 {
		t.Fatalf("traced query was not served from the cache: hits=%d", rt.cacheHits.Value())
	}
	if look := headerTree(t, h3).Find("cache.lookup"); look == nil || look.Tags["outcome"] != "hit" {
		t.Fatalf("traced hit's tree: cache.lookup %+v, want outcome hit", look)
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
	if rt.cacheHits.Value() != 2 || rt.cacheMisses.Value() != 2 {
		t.Fatalf("post-invalidation query should miss: hits=%d misses=%d",
			rt.cacheHits.Value(), rt.cacheMisses.Value())
	}
}

// TestRouterCacheDropsRestartedWorkersAnswers restarts a worker onto a
// warehouse in which query A's answer differs, with no health poll after.
// Until anything reaches the new instance, a hit replays the old answer:
// that is the cache's stated staleness bound. The first answer the new
// instance sends — here to another query, B — names its generation, and
// from then on A gets the new bytes.
func TestRouterCacheDropsRestartedWorkersAnswers(t *testing.T) {
	specs, runs, infos := buildCorpus(t, []gen.RunClass{gen.Small()})
	engines := make([]*provenance.Engine, 2)
	for i, build := range []func(*spec.Spec) (*core.UserView, error){
		func(sp *spec.Spec) (*core.UserView, error) { return core.UAdmin(sp), nil },
		core.UBlackBox,
	} {
		w := loadAll(t, specs, runs)
		v, err := build(specs[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := w.RegisterView("v", v); err != nil {
			t.Fatal(err)
		}
		engines[i] = provenance.NewEngine(w)
	}
	s, err := server.New(obs.NewRegistry(), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetEngine(engines[0])
	worker := httptest.NewServer(s.Handler())
	t.Cleanup(worker.Close)
	rt, err := New(obs.NewRegistry(), Config{Shards: [][]string{{worker.URL}}, CacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Handler())
	t.Cleanup(router.Close)

	info := infos[0]
	queryA := fmt.Sprintf(`{"run":%q,"data":%q,"view":"v"}`, info.id, info.targets[0])
	queryB := fmt.Sprintf(`{"run":%q,"data":%q}`, info.id, info.targets[0])
	ask := func(base, body string) []byte {
		t.Helper()
		status, b := postRaw(t, base, "/v1/query", "", body)
		if status != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", base, body, status, b)
		}
		return b
	}
	old := ask(router.URL, queryA)
	if hit := ask(router.URL, queryA); !bytes.Equal(hit, old) || rt.cacheHits.Value() != 1 {
		t.Fatalf("A was not cached: %d hits", rt.cacheHits.Value())
	}

	s.SetEngine(engines[1])
	fresh := ask(worker.URL, queryA) // straight to the worker: the router sees nothing
	if bytes.Equal(fresh, old) {
		t.Fatal("the two warehouses answer A alike; the test needs answers that differ")
	}
	if got := ask(router.URL, queryA); !bytes.Equal(got, old) {
		t.Fatal("a hit with no forward and no poll since the restart should replay the old answer")
	}
	ask(router.URL, queryB)
	if rt.cacheInvals.Value() != 1 {
		t.Fatalf("B's answer from the new instance counted %d invalidations, want 1", rt.cacheInvals.Value())
	}
	if got := ask(router.URL, queryA); !bytes.Equal(got, fresh) {
		t.Fatalf("after the new instance answered B, A replayed the old instance's answer\nold: %.120s\ngot: %.120s", old, got)
	}
	if got := ask(router.URL, queryA); !bytes.Equal(got, fresh) || rt.cacheHits.Value() != 3 {
		t.Fatalf("A's new answer was not cached: %d hits, want 3", rt.cacheHits.Value())
	}
}

// TestRespCacheBounds unit-tests the segmented LRU's entry bound and its
// admission rule. Of two entries, probation holds one and protected one: a
// new entry evicts probation's tail, not a protected entry, and a hit moves
// an entry to protected, whose tail goes back to probation. An entry
// (request + response bytes) is kept only within its fair share of the byte
// bound, maxBytes/maxEnts, so the byte bound holds with eviction counting
// entries alone.
func TestRespCacheBounds(t *testing.T) {
	c := newRespCache(2, 0)
	mk := func(i int) cacheEntry {
		return cacheEntry{path: "/p", reqBody: []byte(fmt.Sprintf("req%d", i)), body: []byte("resp")}
	}
	resident := func(i int) bool {
		_, ok := c.entries[cacheKey("/p", []byte(fmt.Sprintf("req%d", i)))]
		return ok
	}
	for i := 1; i <= 3; i++ {
		if !c.store(mk(i)) {
			t.Fatalf("entry %d declined under a 32 MiB share", i)
		}
		if i == 1 { // the first is asked again and promoted
			if e, _ := c.lookup("/p", []byte("req1"), 0); e == nil {
				t.Fatal("entry 1 missing")
			}
		}
	}
	// req3 evicted req2 from probation; the promoted req1 stayed.
	if c.Len() != 2 || !resident(1) || resident(2) || !resident(3) {
		t.Fatalf("len %d, resident 1/2/3 = %v/%v/%v; want 2, true/false/true", c.Len(), resident(1), resident(2), resident(3))
	}
	// A hit promotes req3, and protected's tail (req1) goes back to
	// probation, where the next store evicts it.
	if e, _ := c.lookup("/p", []byte("req3"), 0); e == nil {
		t.Fatal("newest entry missing")
	}
	c.store(mk(4))
	if c.Len() != 2 || resident(1) || !resident(3) || !resident(4) {
		t.Fatalf("len %d, resident 1/3/4 = %v/%v/%v; want 2, false/true/true", c.Len(), resident(1), resident(3), resident(4))
	}
	// Epoch mismatch drops the entry, in either segment, and reports stale.
	for _, req := range []string{"req3", "req4"} {
		if _, stale := c.lookup("/p", []byte(req), 7); !stale {
			t.Fatalf("%s: epoch mismatch should report stale", req)
		}
		if e, _ := c.lookup("/p", []byte(req), 7); e != nil {
			t.Fatalf("%s: stale entry should be gone", req)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("len %d after dropping both entries", c.Len())
	}

	// Fair share: 4 entries in 64 bytes admits 16 bytes per entry.
	c2 := newRespCache(4, 64)
	for _, tc := range []struct {
		req  string
		size int
		want bool
	}{
		{"just under", 15, true},
		{"at", 16, true},
		{"just over", 17, false},
	} {
		buf := bytes.Repeat([]byte("b"), tc.size-len(tc.req))
		if got := c2.store(cacheEntry{path: "/p", reqBody: []byte(tc.req), body: buf}); got != tc.want {
			t.Errorf("%s the share (%d bytes): stored %v, want %v", tc.req, tc.size, got, tc.want)
		}
		e, _ := c2.lookup("/p", []byte(tc.req), 0)
		if (e != nil) != tc.want {
			t.Errorf("%s the share: lookup found %v, want %v", tc.req, e != nil, tc.want)
		}
		// The caller may reuse its buffer: an admitted entry kept a copy.
		buf[0] = 'x'
		if e != nil && e.body[0] != 'b' {
			t.Errorf("%s the share: the entry aliases the caller's buffer", tc.req)
		}
	}
	for i := 0; i < 6; i++ { // each asked twice, so both segments fill
		req := []byte(fmt.Sprintf("full%d", i))
		c2.store(cacheEntry{path: "/p", reqBody: req, body: make([]byte, 11)})
		c2.lookup("/p", req, 0)
	}
	total := int64(0)
	for _, e := range c2.entries {
		total += e.size()
	}
	if c2.Len() != 4 || len(c2.entries) != 4 || total > 64 {
		t.Fatalf("full cache: %d entries holding %d bytes, want 4 within 64", c2.Len(), total)
	}
}

// TestRespCacheCollision forces two requests onto one 64-bit key: the
// stored (path, body) check must turn the second into a miss, never into the
// first one's answer.
func TestRespCacheCollision(t *testing.T) {
	c := newRespCache(8, 0)
	c.store(cacheEntry{path: "/p", reqBody: []byte("reqA"), body: []byte("answerA")})
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

// padAnswer is padWorker's answer to query i: JSON padded to size bytes of a
// fill byte that depends on i, so an answer carrying another's bytes is
// visible.
func padAnswer(i, size int) string {
	return fmt.Sprintf(`{"data":"d%d","pad":"%s"}`+"\n", i, strings.Repeat(string(rune('a'+i%26)), size))
}

// padWorker is a fake worker: it answers {"run":"r","data":"d<i>"} with
// padAnswer(i, size(i)), length stated, and counts the queries it answers.
func padWorker(t *testing.T, size func(i int) int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var queries atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/readyz" {
			fmt.Fprintln(w, `{"ready":true,"runs_loaded":1,"runs_total":1}`)
			return
		}
		var req struct{ Data string }
		var i int
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if _, err := fmt.Sscanf(req.Data, "d%d", &i); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		queries.Add(1)
		answer := padAnswer(i, size(i))
		w.Header().Set("Content-Length", strconv.Itoa(len(answer)))
		fmt.Fprint(w, answer)
	}))
	t.Cleanup(ts.Close)
	return ts, &queries
}

// TestRouterCacheAdmission checks the admission rule end to end: with a
// 4 KiB fair share (16 entries in 64 KiB), a small answer is stored and hits
// on repeat, and a large one is forwarded every time, never enters the
// cache, counts in router.cache_declined and still misses, and is relayed
// byte for byte. The relay span says which decision a request got.
func TestRouterCacheAdmission(t *testing.T) {
	worker, queries := padWorker(t, func(i int) int { return []int{100, 20000}[i] })
	rt, err := New(obs.NewRegistry(), Config{
		Shards:        [][]string{{worker.URL}},
		CacheEntries:  16,
		CacheBytes:    16 << 12,
		SlowThreshold: -1, // every request's span tree lands in the slowlog
	})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	relayDecision := func() string {
		t.Helper()
		entries := rt.SlowLog().Entries()
		relay := entries[0].Trace.Find("relay")
		if relay == nil {
			return ""
		}
		return relay.Tags["cache"]
	}
	// ask serves through Handler() directly, so the request's slowlog entry
	// is in place when it returns (a client can read a response before the
	// server's handler has returned).
	ask := func(id string, i int) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(fmt.Sprintf(`{"run":"r","data":"d%d"}`, i)))
		req.Header.Set(client.TraceIDHeader, id)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if want := padAnswer(i, []int{100, 20000}[i]); rec.Code != http.StatusOK || rec.Body.String() != want || rec.Header().Get(client.TraceIDHeader) != id {
			t.Fatalf("d%d under %s: status %d, %d bytes that are not the worker's %d", i, id, rec.Code, rec.Body.Len(), len(want))
		}
	}

	ask("00000000000000a1", 0)
	if d := relayDecision(); d != "stored" {
		t.Fatalf("small answer: relay span cache=%q, want stored", d)
	}
	ask("00000000000000a2", 0)
	if queries.Load() != 1 || rt.cacheHits.Value() != 1 || rt.cache.Len() != 1 {
		t.Fatalf("small answer repeated: %d forwarded, %d hits, %d entries; want 1, 1, 1",
			queries.Load(), rt.cacheHits.Value(), rt.cache.Len())
	}

	for k, id := range []string{"00000000000000b1", "00000000000000b2", "00000000000000b3"} {
		ask(id, 1)
		if d := relayDecision(); d != "declined" {
			t.Fatalf("large answer %d: relay span cache=%q, want declined", k, d)
		}
	}
	if queries.Load() != 4 || rt.cache.Len() != 1 {
		t.Fatalf("large answer asked 3 times: %d forwarded in all, %d entries; want 4 and 1", queries.Load(), rt.cache.Len())
	}
	if rt.cacheDeclined.Value() != 3 || rt.cacheMisses.Value() != 4 || rt.cacheHits.Value() != 1 {
		t.Fatalf("counters: declined=%d misses=%d hits=%d, want 3, 4 and 1",
			rt.cacheDeclined.Value(), rt.cacheMisses.Value(), rt.cacheHits.Value())
	}
	if sh := rt.shards[0]; sh.cacheDeclined.Value() != 3 {
		t.Fatalf("router.shard.0.cache_declined = %d, want 3", sh.cacheDeclined.Value())
	}
}

// TestRouterOneTimeAnswersHeap sends 4,000 distinct ~10 KB answers through
// Handler(), none asked twice, to a router with `zoom router`'s default
// cache. Each is within its fair share, so the cache sees them all, but
// only one share of them may stay as answers: live heap after GC grows by
// less than 1 MB, where keeping a full probation of them would hold 8 MB.
// The rest are noted as keys, counted in router.cache_noted and per shard.
func TestRouterOneTimeAnswersHeap(t *testing.T) {
	const n = 4000
	worker, queries := padWorker(t, func(int) int { return 10 << 10 })
	rt, err := New(obs.NewRegistry(), Config{Shards: [][]string{{worker.URL}}, CacheEntries: 4096})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	ask := func(i int) {
		req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(fmt.Sprintf(`{"run":"r","data":"d%d"}`, i)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Body.Len() != len(padAnswer(i, 10<<10)) {
			t.Fatalf("d%d: status %d, %d bytes", i, rec.Code, rec.Body.Len())
		}
	}
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < 100; i++ { // warm the connection pool, buffers and maps
		ask(n + i)
	}
	before := live()
	for i := 0; i < n; i++ {
		ask(i)
	}
	grew := int64(live()) - int64(before)
	t.Logf("%d one-time answers: live heap %+d bytes, cache holds %d entries and %d bytes", n, grew, rt.cache.Len(), rt.cache.Bytes())
	if grew >= 1<<20 {
		t.Fatalf("%d one-time answers grew the live heap by %d bytes, want under 1 MB", n, grew)
	}
	if queries.Load() != n+100 || rt.cacheNoted.Value() == 0 || rt.cacheNoted.Value() != rt.shards[0].cacheNoted.Value() || rt.cache.Bytes() > rt.cache.share {
		t.Fatalf("%d forwarded, noted %d (shard 0: %d), %d bytes held; want %d forwarded, noted in both, at most %d bytes",
			queries.Load(), rt.cacheNoted.Value(), rt.shards[0].cacheNoted.Value(), rt.cache.Bytes(), n+100, rt.cache.share)
	}
}

// TestConcurrentPooledRelay races relays that share the pool of read
// buffers: 32 goroutines ask, through Handler(), for distinct answers above
// the cache's fair share, of different lengths (one above the size the
// pool keeps), several times each. Every body must be the worker's, byte
// for byte. The "Concurrent" name opts it into the -race CI job.
func TestConcurrentPooledRelay(t *testing.T) {
	const clients, iters = 32, 4
	size := func(i int) int {
		if i == clients-1 {
			return maxPooledRelay + 123
		}
		return 17<<10 + i*4099
	}
	worker, queries := padWorker(t, size)
	rt, err := New(obs.NewRegistry(), Config{Shards: [][]string{{worker.URL}}, CacheEntries: 4096})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				id := fmt.Sprintf("%014x%02x", c, k)
				req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(fmt.Sprintf(`{"run":"r","data":"d%d"}`, c)))
				req.Header.Set(client.TraceIDHeader, id)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if want := padAnswer(c, size(c)); rec.Code != http.StatusOK || rec.Body.String() != want {
					t.Errorf("client %d iter %d: status %d, %d bytes that are not the worker's %d", c, k, rec.Code, rec.Body.Len(), len(want))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if queries.Load() != clients*iters || rt.cache.Len() != 0 {
		t.Fatalf("%d forwarded and %d cached, want all %d forwarded and none cached", queries.Load(), rt.cache.Len(), clients*iters)
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
// read, placement peek, spans, headers, one write of the stored bytes —
// measures 25 allocations; under the race detector, which forces misses of
// encoding/json's pooled scanner at random, the ceiling has 2 spare. None of
// them may be the answer: a hit is written from the cached slice, so the
// bytes allocated per hit stay far below the answer's size.
func TestRouterCacheHitAllocs(t *testing.T) {
	hitCeiling := 25
	if raceEnabled {
		hitCeiling += 2
	}

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
	if allocs > float64(hitCeiling) {
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
// the standard error body, and since both tiers map the cap through the one
// request edge, the routed 413 is the single node's byte for byte.
func TestRouterRequestTooLarge(t *testing.T) {
	specs, runs, _ := buildCorpus(t, []gen.RunClass{gen.Small()})
	singleURL, routerURL, _ := buildCluster(t, 2, specs, runs)
	big := fmt.Sprintf(`{"run":"r","data":%q}`, strings.Repeat("a", edge.MaxBodyBytes))
	var bodies [][]byte
	for _, base := range []string{routerURL, singleURL} {
		status, body, id := postTraced(t, base, "/v1/query", "0000000000000bad", big)
		if status != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversized body status %d, want 413 (body %.120s)", base, status, body)
		}
		if !strings.Contains(string(body), `"error"`) || id != "0000000000000bad" {
			t.Fatalf("%s: 413 missing its error body or trace id header (%q): %s", base, id, body)
		}
		bodies = append(bodies, body)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("routed 413 %q differs from the single node's %q", bodies[0], bodies[1])
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
	rt, err := New(obs.NewRegistry(), Config{Shards: [][]string{{w0.URL}, {w1.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	rt.fanout = 1 // the second shard must wait for the first's slot
	rt.gatherTimeout = 30 * time.Second
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, fails := rt.gather(ctx, func(ctx context.Context, cl *client.Client) (any, error) {
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

// TestRouterPrefersAPolledReplica: a replica no poll has seen (replica 0,
// as one added to a running router is) gets no forward while a sibling that
// a poll has seen ready (replica 1) can take it; with neither polled, the
// router forwards in preference order, to replica 0.
func TestRouterPrefersAPolledReplica(t *testing.T) {
	specs, runs, infos := buildCorpus(t, []gen.RunClass{gen.Small()})
	_, routerURL, rt, _ := buildReplicatedCluster(t, 1, 2, specs, runs, nil)
	rep0, rep1 := rt.shards[0].replicas[0], rt.shards[0].replicas[1]
	ask := func(i int) {
		t.Helper()
		body := fmt.Sprintf(`{"run":%q,"data":%q}`, infos[i].id, infos[i].targets[0])
		if status, b := postRaw(t, routerURL, "/v1/query", "", body); status != http.StatusOK {
			t.Fatalf("query %d: %d %.200s", i, status, b)
		}
	}

	ask(0)
	if rep0.attempts.Value() != 1 || rep1.attempts.Value() != 0 {
		t.Fatalf("nothing polled: attempts %d, %d, want the preferred replica's 1, 0",
			rep0.attempts.Value(), rep1.attempts.Value())
	}
	rep1.setHealth(true, len(runs), len(runs))
	ask(1)
	if rep0.attempts.Value() != 1 || rep1.attempts.Value() != 1 {
		t.Fatalf("replica 1 polled ready, replica 0 never polled: attempts %d, %d, want 1, 1",
			rep0.attempts.Value(), rep1.attempts.Value())
	}
}

// TestRouterGatherNamesTheReplica: with the preferred replica's breaker
// open, a scatter-gather asks its sibling, so /v1/cluster/stats names the
// sibling that answered; once the sibling is down too, the failed shard of
// /v1/runs names the sibling it tried. Neither may name replica 0, which
// was never asked.
func TestRouterGatherNamesTheReplica(t *testing.T) {
	specs, runs, _ := buildCorpus(t, []gen.RunClass{gen.Small()})
	_, routerURL, rt, servers := buildReplicatedCluster(t, 1, 2, specs, runs, nil)
	rep0, rep1 := rt.shards[0].replicas[0], rt.shards[0].replicas[1]
	rep0.openUntil.Store(time.Now().Add(time.Hour).UnixNano())

	status, body := getRaw(t, routerURL, "/v1/cluster/stats", "")
	var stats clusterStatsResponse
	if err := json.Unmarshal(body, &stats); err != nil || status != http.StatusOK {
		t.Fatalf("/v1/cluster/stats: %d %v %.200s", status, err, body)
	}
	if len(stats.Shards) != 1 || stats.Shards[0].Addr != rep1.base {
		var named []string
		for _, sh := range stats.Shards {
			named = append(named, sh.Addr)
		}
		t.Fatalf("answering shards named %v, want replica 1 (%s), not replica 0 (%s)", named, rep1.base, rep0.base)
	}

	killServer(servers[0][1])
	status, body = getRaw(t, routerURL, "/v1/runs", "")
	var cat routerRunsResponse
	if err := json.Unmarshal(body, &cat); err != nil || status != http.StatusOK {
		t.Fatalf("/v1/runs: %d %v %.200s", status, err, body)
	}
	if len(cat.FailedShards) != 1 || cat.FailedShards[0].Addr != rep1.base {
		t.Fatalf("failed shards %+v, want replica 1 (%s), not replica 0 (%s)", cat.FailedShards, rep1.base, rep0.base)
	}
}

// TestRouterCopyErrors checks the relay contract, with a cache that keeps
// the answers and with one whose fair share declines them. A worker that
// dies mid-body (Content-Length promised, connection cut short) costs the
// client a well-formed 502 naming the shard and replica — never a committed
// 200 with half a document — is counted in router.copy_errors, and leaves
// nothing in the cache. So does a chunked 200 with no length, or a length
// over maxBufferedBody: the 502 names the bound. A worker that keeps its
// promise is relayed byte for byte with the length stated, including the
// answers read into a relay buffer after the short one.
func TestRouterCopyErrors(t *testing.T) {
	const whole = `{"run":"r","data":"whole","kind":"deep"}` + "\n"
	long := `{"run":"r","pad":"` + strings.Repeat("y", 50000) + `"}` + "\n"
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/readyz" {
			fmt.Fprintln(w, `{"ready":true,"runs_loaded":1,"runs_total":1}`)
			return
		}
		req, _ := io.ReadAll(r.Body)
		answer := whole
		switch {
		case bytes.Contains(req, []byte(`"short"`)):
			// Promise more bytes than are sent; the server closes the
			// connection on the short write.
			w.Header().Set("Content-Length", "100000")
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			fmt.Fprint(w, `{"run":"xx"`)
			return
		case bytes.Contains(req, []byte(`"chunked"`)):
			// No Content-Length: the flush commits a chunked 200.
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			fmt.Fprint(w, whole)
			return
		case bytes.Contains(req, []byte(`"huge"`)):
			// A stated length over the router's bound; the router reads none
			// of it.
			w.Header().Set("Content-Length", strconv.Itoa(maxBufferedBody+1))
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			return
		case bytes.Contains(req, []byte(`"long"`)):
			answer = long
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(answer)))
		fmt.Fprint(w, answer)
	}))
	t.Cleanup(worker.Close)

	for _, tc := range []struct {
		name       string
		cacheBytes int64 // over CacheEntries 16
		stored     int   // cache entries after the first answer
	}{
		{"cached", 0, 1},
		{"declined", 16 * 64, 0}, // a 64-byte share: every answer here is larger
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := New(obs.NewRegistry(), Config{Shards: [][]string{{worker.URL}}, CacheEntries: 16, CacheBytes: tc.cacheBytes})
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
				req.Header.Set(client.TraceIDHeader, id)
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
			relayed := func(what, id, body, want string) {
				t.Helper()
				resp, got := post(id, body)
				if resp.StatusCode != http.StatusOK || string(got) != want {
					t.Fatalf("%s: status %d, relayed %.80q (%d bytes), want the worker's %.80q (%d bytes)",
						what, resp.StatusCode, got, len(got), want, len(want))
				}
				if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(want)) || len(resp.TransferEncoding) != 0 {
					t.Fatalf("%s: Content-Length %q, Transfer-Encoding %v; want the length stated", what, cl, resp.TransferEncoding)
				}
			}

			relayed("complete body", "00000000000000c1", `{"run":"r","data":"whole"}`, whole)
			if rt.copyErrors.Value() != 0 || rt.cache.Len() != tc.stored || rt.cacheDeclined.Value() != int64(1-tc.stored) {
				t.Fatalf("complete body: copy_errors=%d cache entries=%d declined=%d, want 0, %d and %d",
					rt.copyErrors.Value(), rt.cache.Len(), rt.cacheDeclined.Value(), tc.stored, 1-tc.stored)
			}

			resp, got := post("00000000000000c2", `{"run":"r","data":"short"}`)
			if resp.StatusCode != http.StatusBadGateway {
				t.Fatalf("short body: status %d body %q, want 502", resp.StatusCode, got)
			}
			var eb edge.ErrorBody
			if err := json.Unmarshal(got, &eb); err != nil {
				t.Fatalf("short body: 502 body %q is not JSON: %v", got, err)
			}
			if resp.Header.Get(client.TraceIDHeader) != "00000000000000c2" || !strings.Contains(eb.Error, "shard 0 replica 0 ("+worker.URL+")") {
				t.Fatalf("short body: 502 does not carry the trace id and name the shard and replica: %s %+v", resp.Header.Get(client.TraceIDHeader), eb)
			}
			if rt.copyErrors.Value() != 1 {
				t.Fatalf("short body: router.copy_errors = %d, want 1", rt.copyErrors.Value())
			}
			if rt.cache.Len() != tc.stored {
				t.Fatalf("short body was cached: %d entries, want the %d from before", rt.cache.Len(), tc.stored)
			}

			// An answer of unstated length, or stated over the bound, is not
			// relayed at all: a well-formed 502 naming the bound, never a 200
			// the router could not vouch for.
			for _, data := range []string{"chunked", "huge"} {
				resp, got := post("00000000000000c4", `{"run":"r","data":"`+data+`"}`)
				var eb edge.ErrorBody
				if resp.StatusCode != http.StatusBadGateway || json.Unmarshal(got, &eb) != nil {
					t.Fatalf("%s answer: status %d body %q, want a JSON 502", data, resp.StatusCode, got)
				}
				if !strings.Contains(eb.Error, "shard 0 replica 0 ("+worker.URL+")") || !strings.Contains(eb.Error, strconv.Itoa(maxBufferedBody)) {
					t.Fatalf("%s answer: 502 %q does not name the replica and the bound", data, eb.Error)
				}
			}
			if rt.copyErrors.Value() != 1 || rt.cache.Len() != tc.stored {
				t.Fatalf("unbounded answers: copy_errors=%d cache entries=%d, want 1 and %d", rt.copyErrors.Value(), rt.cache.Len(), tc.stored)
			}

			// The short read left `{"run":"xx"` in a relay buffer; the
			// answers read after it carry none of it.
			relayed("long body after the short one", "00000000000000c3", `{"run":"r","data":"long"}`, long)
			relayed("complete body again", "00000000000000c1", `{"run":"r","data":"whole"}`, whole)
		})
	}
}

// TestRouterCutBodyFailsOver: a replica that states its answer's length and
// then closes the connection mid-body is a failed attempt, not the client's
// 502. The router relays the sibling's whole answer with a 200, counts one
// failover and one copy error, and caches only the whole answer.
func TestRouterCutBodyFailsOver(t *testing.T) {
	const whole = `{"run":"r","data":"d","kind":"deep"}` + "\n"
	var cutQueries atomic.Int64
	worker := func(cut bool) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if r.URL.Path == "/readyz" {
				fmt.Fprintln(w, `{"ready":true,"runs_loaded":1,"runs_total":1}`)
				return
			}
			w.Header().Set("Content-Length", strconv.Itoa(len(whole)))
			if cut {
				// The server closes the connection on the short write.
				cutQueries.Add(1)
				w.WriteHeader(http.StatusOK)
				w.(http.Flusher).Flush()
				fmt.Fprint(w, whole[:10])
				return
			}
			fmt.Fprint(w, whole)
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	cut, sibling := worker(true), worker(false)
	rt, err := New(obs.NewRegistry(), Config{Shards: [][]string{{cut.URL, sibling.URL}}, CacheEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)

	for i := 0; i < 2; i++ { // the second ask is a cache hit
		status, got := postRaw(t, rts.URL, "/v1/query", "", `{"run":"r","data":"d"}`)
		if status != http.StatusOK || string(got) != whole {
			t.Fatalf("ask %d: status %d body %q, want 200 and the sibling's %q", i, status, got, whole)
		}
		if cutQueries.Load() != 1 {
			t.Fatalf("ask %d: the cutting replica saw %d queries, want 1", i, cutQueries.Load())
		}
	}
	if rt.failovers.Value() != 1 || rt.copyErrors.Value() != 1 {
		t.Fatalf("router.failovers=%d router.copy_errors=%d, want 1 and 1", rt.failovers.Value(), rt.copyErrors.Value())
	}
	if rt.cache.Len() != 1 || rt.cacheHits.Value() != 1 {
		t.Fatalf("cache: %d entries, %d hits; want the whole answer stored once and hit once", rt.cache.Len(), rt.cacheHits.Value())
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
		cfg.HealthInterval = 10 * time.Millisecond
	})
	rt.breakerThreshold = 2
	rt.breakerCooldown = 20 * time.Millisecond // fast half-open cycles

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
