package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"regexp"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/zoom/client"
)

// timingRe matches the volatile per-stage timing object in a deep-query
// response; it is the only non-deterministic part of any API body (wall-
// clock nanoseconds), so the differential suite masks it before the byte
// comparison. The timing object is flat — no nested braces — and the
// pattern holds however the encoder spaces its output.
var timingRe = regexp.MustCompile(`"timing":\s*\{[^{}]*\}`)

func maskTiming(b []byte) []byte {
	return timingRe.ReplaceAll(b, []byte(`"timing":null`))
}

// traceID returns a fixed, valid trace id for pair n, so the single node
// and the cluster answer the same logical query under the same id and
// the trace_id fields compare equal byte-for-byte.
func traceID(n int) string { return fmt.Sprintf("%016x", n+1) }

// TestClusterDifferentialByteIdentical is the core correctness claim of
// the scale-out layer: for every run, query kind, and view shape, the
// routed answer over 2 and 4 shards is byte-identical to a single node
// holding all the runs (deep queries modulo the masked wall-clock timing
// block). Run ids are the shard key and every query is answered within
// one run, so sharding must not be observable to clients.
func TestClusterDifferentialByteIdentical(t *testing.T) {
	specs, runs, infos := buildCorpus(t, []gen.RunClass{gen.Small(), gen.Medium()})
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			singleURL, routerURL, _ := buildCluster(t, shards, specs, runs)
			n := 0
			diff := func(path, body string, mask bool) {
				t.Helper()
				id := traceID(n)
				n++
				wantStatus, want := postRaw(t, singleURL, path, id, body)
				gotStatus, got := postRaw(t, routerURL, path, id, body)
				if wantStatus != gotStatus {
					t.Fatalf("%s %s: status single=%d routed=%d", path, body, wantStatus, gotStatus)
				}
				if mask {
					want, got = maskTiming(want), maskTiming(got)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("%s %s: routed answer differs from single node\nsingle: %s\nrouted: %s",
						path, body, want, got)
				}
			}
			for _, info := range infos {
				relevant, err := json.Marshal(info.relevant)
				if err != nil {
					t.Fatal(err)
				}
				for _, target := range info.targets {
					// Deep under UAdmin, a relevant-set view, and each kind.
					diff("/v1/query", fmt.Sprintf(`{"run":%q,"data":%q}`, info.id, target), true)
					diff("/v1/query", fmt.Sprintf(`{"run":%q,"data":%q,"relevant":%s}`, info.id, target, relevant), true)
					diff("/v1/query", fmt.Sprintf(`{"run":%q,"data":%q,"kind":"immediate"}`, info.id, target), false)
					diff("/v1/query", fmt.Sprintf(`{"run":%q,"data":%q,"kind":"derived"}`, info.id, target), false)
				}
				targets, err := json.Marshal(info.targets)
				if err != nil {
					t.Fatal(err)
				}
				diff("/v1/batch", fmt.Sprintf(`{"run":%q,"data":%s}`, info.id, targets), false)
				diff("/v1/batch", fmt.Sprintf(`{"run":%q,"data":%s,"relevant":%s}`, info.id, targets, relevant), false)
			}

			// The merged run catalog is byte-identical too: same rows, same
			// sort, same count, same field order.
			id := traceID(n)
			wantStatus, want := getRaw(t, singleURL, "/v1/runs", id)
			gotStatus, got := getRaw(t, routerURL, "/v1/runs", id)
			if wantStatus != http.StatusOK || gotStatus != http.StatusOK {
				t.Fatalf("/v1/runs: status single=%d routed=%d", wantStatus, gotStatus)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("/v1/runs: routed catalog differs\nsingle: %s\nrouted: %s", want, got)
			}
		})
	}
}

// TestClusterReplicatedDifferentialByteIdentical extends the byte-
// identity claim to replica sets: over a 2-shard × 2-replica cluster
// with the response cache enabled, every query kind answers byte-
// identically to a single node. Then the preferred replica of every
// shard is killed mid-suite and the whole sweep repeats twice more —
// once bypassing the cache (exercising failover to the fresh sibling)
// and once through it (exercising cached replay) — and both must
// reproduce the recorded first-sweep answers with only the trace id
// changed. Repeated bodies are compared against the recording, not the
// live single node, because the worker engine's closure memo makes a
// repeat observable there (outcome flips "miss" → "hit") while a fresh
// replica or a cached replay answers as the first time — exactly the
// contract the cache and identical-snapshot replicas promise.
func TestClusterReplicatedDifferentialByteIdentical(t *testing.T) {
	specs, runs, infos := buildCorpus(t, []gen.RunClass{gen.Small(), gen.Medium()})
	singleURL, routerURL, rt, servers := buildReplicatedCluster(t, 2, 2, specs, runs, func(cfg *Config) {
		cfg.CacheEntries = 1024
		// A share of maxBufferedBody admits every answer, so the cache
		// sweep replays the whole tape, large answers included.
		cfg.CacheBytes = int64(cfg.CacheEntries) * maxBufferedBody
	})

	type recorded struct {
		path, body string
		mask       bool
		status     int
		traceID    string
		bytes      []byte // raw routed answer from the first sweep
	}
	var tape []recorded
	n := 0
	nextID := func() string { id := traceID(n); n++; return id }

	// Sweep 1: live differential against the single node, recording the
	// routed answers.
	sweep1 := func(path, body string, mask bool) {
		t.Helper()
		id := nextID()
		wantStatus, want := postRaw(t, singleURL, path, id, body)
		gotStatus, got := postRaw(t, routerURL, path, id, body)
		if wantStatus != gotStatus {
			t.Fatalf("%s %s: status single=%d routed=%d", path, body, wantStatus, gotStatus)
		}
		mw, mg := want, got
		if mask {
			mw, mg = maskTiming(want), maskTiming(got)
		}
		if !bytes.Equal(mw, mg) {
			t.Fatalf("%s %s: replicated answer differs from single node\nsingle: %s\nrouted: %s",
				path, body, mw, mg)
		}
		tape = append(tape, recorded{path: path, body: body, mask: mask, status: gotStatus, traceID: id, bytes: got})
	}
	for _, info := range infos {
		relevant, err := json.Marshal(info.relevant)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range info.targets {
			sweep1("/v1/query", fmt.Sprintf(`{"run":%q,"data":%q}`, info.id, target), true)
			sweep1("/v1/query", fmt.Sprintf(`{"run":%q,"data":%q,"relevant":%s}`, info.id, target, relevant), true)
			sweep1("/v1/query", fmt.Sprintf(`{"run":%q,"data":%q,"kind":"immediate"}`, info.id, target), false)
			sweep1("/v1/query", fmt.Sprintf(`{"run":%q,"data":%q,"kind":"derived"}`, info.id, target), false)
		}
		targets, err := json.Marshal(info.targets)
		if err != nil {
			t.Fatal(err)
		}
		sweep1("/v1/batch", fmt.Sprintf(`{"run":%q,"data":%s}`, info.id, targets), false)
	}

	// Kill the preferred replica of every shard.
	for i := range servers {
		killServer(servers[i][0])
	}

	// replay re-issues every recorded request under a fresh trace id and
	// checks the answer is the recording with the trace id rewritten.
	// rawQuery bypasses the router cache when set (the worker ignores the
	// unknown parameter, so its bytes don't change).
	replay := func(name, rawQuery string) {
		for _, rec := range tape {
			id := nextID()
			path := rec.path
			if rawQuery != "" {
				path += "?" + rawQuery
			}
			status, got := postRaw(t, routerURL, path, id, rec.body)
			if status != rec.status {
				t.Fatalf("%s %s %s: status %d, want recorded %d", name, rec.path, rec.body, status, rec.status)
			}
			want := bytes.Replace(rec.bytes, []byte(rec.traceID), []byte(id), 1)
			if rec.mask {
				want, got = maskTiming(want), maskTiming(got)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("%s %s %s: answer differs from recording (recID=%s newID=%s)\nrecorded: %s\nreplayed: %s",
					name, rec.path, rec.body, rec.traceID, id, want, got)
			}
		}
	}
	failoversBefore := rt.failovers.Value()
	replay("failover", "x=1")
	if rt.failovers.Value() == failoversBefore {
		t.Fatal("failover sweep never failed over")
	}
	hitsBefore := rt.cacheHits.Value()
	replay("cache", "")
	if hits := rt.cacheHits.Value() - hitsBefore; hits != int64(len(tape)) {
		t.Fatalf("cache sweep: %d cache hits for %d recorded answers", hits, len(tape))
	}
}

// TestClusterReplicatedConcurrentDifferential hammers a 2×2 cluster from
// concurrent clients while the preferred replica of every shard is
// killed mid-flight: failover must keep every answer correct with zero
// errors. The "Concurrent" name opts it into the -race CI job.
func TestClusterReplicatedConcurrentDifferential(t *testing.T) {
	specs, runs, infos := buildCorpus(t, []gen.RunClass{gen.Small()})
	singleURL, routerURL, _, servers := buildReplicatedCluster(t, 2, 2, specs, runs, nil)
	single := client.New(singleURL, client.Options{})
	ctx := context.Background()

	truth := make(map[string]*client.Result, len(infos))
	for _, info := range infos {
		q, err := single.Query(ctx, client.QueryRequest{Run: info.id, Data: info.targets[0]})
		if err != nil {
			t.Fatal(err)
		}
		truth[info.id] = q.Result
	}

	const workers = 8
	const iters = 15
	var started sync.WaitGroup
	started.Add(workers)
	killed := make(chan struct{})
	go func() {
		started.Wait() // all clients in flight before the kill
		for i := range servers {
			killServer(servers[i][0])
		}
		close(killed)
	}()

	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := client.New(routerURL, client.Options{})
			for i := 0; i < iters; i++ {
				if i == 1 {
					started.Done()
				}
				info := infos[(w+i)%len(infos)]
				q, err := c.Query(ctx, client.QueryRequest{Run: info.id, Data: info.targets[0]})
				if err != nil {
					errc <- fmt.Errorf("worker %d iter %d query %s: %v", w, i, info.id, err)
					return
				}
				if !reflect.DeepEqual(q.Result, truth[info.id]) {
					errc <- fmt.Errorf("worker %d: replicated answer for %s differs from single node", w, info.id)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	<-killed
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestClusterConcurrentDifferential hammers the router from concurrent
// clients and checks every answer against single-node ground truth. The
// "Concurrent" name opts it into the -race CI job.
func TestClusterConcurrentDifferential(t *testing.T) {
	specs, runs, infos := buildCorpus(t, []gen.RunClass{gen.Small()})
	singleURL, routerURL, _ := buildCluster(t, 2, specs, runs)
	single := client.New(singleURL, client.Options{})
	ctx := context.Background()

	// Ground truth from the single node.
	type answer struct {
		result *client.Result
		batch  []*client.Result
	}
	truth := make(map[string]answer, len(infos))
	for _, info := range infos {
		q, err := single.Query(ctx, client.QueryRequest{Run: info.id, Data: info.targets[0]})
		if err != nil {
			t.Fatal(err)
		}
		b, err := single.Batch(ctx, client.BatchRequest{Run: info.id, Data: info.targets})
		if err != nil {
			t.Fatal(err)
		}
		truth[info.id] = answer{result: q.Result, batch: b.Results}
	}

	const workers = 8
	const iters = 10
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One client per goroutine, all sharing the router.
			c := client.New(routerURL, client.Options{})
			for i := 0; i < iters; i++ {
				info := infos[(w+i)%len(infos)]
				want := truth[info.id]
				q, err := c.Query(ctx, client.QueryRequest{Run: info.id, Data: info.targets[0]})
				if err != nil {
					errc <- fmt.Errorf("worker %d query %s: %v", w, info.id, err)
					return
				}
				if !reflect.DeepEqual(q.Result, want.result) {
					errc <- fmt.Errorf("worker %d: routed deep result for %s differs from single node", w, info.id)
					return
				}
				b, err := c.Batch(ctx, client.BatchRequest{Run: info.id, Data: info.targets})
				if err != nil {
					errc <- fmt.Errorf("worker %d batch %s: %v", w, info.id, err)
					return
				}
				if !reflect.DeepEqual(b.Results, want.batch) {
					errc <- fmt.Errorf("worker %d: routed batch for %s differs from single node", w, info.id)
					return
				}
				if i%5 == 0 {
					rr, err := c.Runs(ctx)
					if err != nil {
						errc <- fmt.Errorf("worker %d runs: %v", w, err)
						return
					}
					if rr.Count != len(infos) {
						errc <- fmt.Errorf("worker %d: merged runs count %d, want %d", w, rr.Count, len(infos))
						return
					}
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
