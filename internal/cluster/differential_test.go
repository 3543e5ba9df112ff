package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/zoom/client"
)

// traceID returns a distinct, valid trace id for request n. The single
// node and the cluster answer each logical query under different ids: an
// answer names no trace, so the ids must not show in the bytes compared.
func traceID(n int) string { return fmt.Sprintf("%016x", n+1) }

// TestClusterDifferentialByteIdentical is the core correctness claim of
// the scale-out layer: for every run, query kind, and view shape, the
// routed answer over 2 and 4 shards is byte-identical to a single node
// holding all the runs, raw bytes with nothing masked, traced (?trace=1)
// or not. Run ids are the shard key and every query is answered within one
// run, so sharding must not be observable to clients, and a trace travels
// in a header, so asking for one must not be either.
func TestClusterDifferentialByteIdentical(t *testing.T) {
	specs, runs, infos := buildCorpus(t, []gen.RunClass{gen.Small(), gen.Medium()})
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			singleURL, routerURL, _ := buildCluster(t, shards, specs, runs)
			n := 0
			diff := func(path, body string) {
				t.Helper()
				wantStatus, want := postRaw(t, singleURL, path, traceID(n), body)
				gotStatus, got := postRaw(t, routerURL, path, traceID(n+1), body)
				tracedStatus, traced := postRaw(t, routerURL, path+"?trace=1", traceID(n+2), body)
				n += 3
				if wantStatus != gotStatus || wantStatus != tracedStatus {
					t.Fatalf("%s %s: status single=%d routed=%d traced=%d", path, body, wantStatus, gotStatus, tracedStatus)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("%s %s: routed answer differs from single node\nsingle: %s\nrouted: %s",
						path, body, want, got)
				}
				if !bytes.Equal(want, traced) {
					t.Fatalf("%s %s: traced routed answer differs from the untraced one\nuntraced: %s\ntraced:   %s",
						path, body, want, traced)
				}
			}
			for _, info := range infos {
				relevant, err := json.Marshal(info.relevant)
				if err != nil {
					t.Fatal(err)
				}
				for _, target := range info.targets {
					// Deep under UAdmin, a relevant-set view, and each kind.
					diff("/v1/query", fmt.Sprintf(`{"run":%q,"data":%q}`, info.id, target))
					diff("/v1/query", fmt.Sprintf(`{"run":%q,"data":%q,"relevant":%s}`, info.id, target, relevant))
					diff("/v1/query", fmt.Sprintf(`{"run":%q,"data":%q,"kind":"immediate"}`, info.id, target))
					diff("/v1/query", fmt.Sprintf(`{"run":%q,"data":%q,"kind":"derived"}`, info.id, target))
				}
				targets, err := json.Marshal(info.targets)
				if err != nil {
					t.Fatal(err)
				}
				diff("/v1/batch", fmt.Sprintf(`{"run":%q,"data":%s}`, info.id, targets))
				diff("/v1/batch", fmt.Sprintf(`{"run":%q,"data":%s,"relevant":%s}`, info.id, targets, relevant))
			}

			// The merged run catalog is byte-identical too: same rows, same
			// sort, same count, same field order.
			wantStatus, want := getRaw(t, singleURL, "/v1/runs", traceID(n))
			gotStatus, got := getRaw(t, routerURL, "/v1/runs", traceID(n+1))
			if wantStatus != http.StatusOK || gotStatus != http.StatusOK {
				t.Fatalf("/v1/runs: status single=%d routed=%d", wantStatus, gotStatus)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("/v1/runs: routed catalog differs\nsingle: %s\nrouted: %s", want, got)
			}
		})
	}
}

// TestClusterBatchWorkersRejected: a batch is answered on its request's
// goroutine, so a body asking for a pool width is the unknown-field 400
// that names "workers" — and the router relays the worker's 400 byte for
// byte, as the single node answers it.
func TestClusterBatchWorkersRejected(t *testing.T) {
	specs, runs, infos := buildCorpus(t, []gen.RunClass{gen.Small()})
	singleURL, routerURL, _ := buildCluster(t, 2, specs, runs)
	targets, err := json.Marshal(infos[0].targets)
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"run":%q,"data":%s,"workers":4}`, infos[0].id, targets)
	wantStatus, want := postRaw(t, singleURL, "/v1/batch", traceID(0), body)
	gotStatus, got := postRaw(t, routerURL, "/v1/batch", traceID(1), body)
	if wantStatus != http.StatusBadRequest || !bytes.Contains(want, []byte(`unknown field \"workers\"`)) {
		t.Fatalf("single node: %d %s, want a 400 naming the workers field", wantStatus, want)
	}
	if gotStatus != wantStatus || !bytes.Equal(got, want) {
		t.Fatalf("routed: %d %s, single node: %d %s", gotStatus, got, wantStatus, want)
	}
}

// TestClusterReplicatedDifferentialByteIdentical extends the byte-
// identity claim to replica sets: over a 2-shard × 2-replica cluster
// with the response cache enabled, every query kind answers byte-
// identically to a single node. Then the preferred replica of every
// shard is killed mid-suite and the whole sweep repeats twice more —
// once traced, with the cache invalidated (exercising failover to the fresh
// sibling, and a traced answer against its untraced recording), and once
// untraced through the cache (exercising cached replay) — and both must
// reproduce the first sweep's answers byte for byte under new trace ids.
// A cold replica, a warm one and the cache all answer alike because an
// answer carries neither its trace id nor its closure-cache outcome.
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
		status     int
		bytes      []byte // raw routed answer from the first sweep
	}
	var tape []recorded
	n := 0
	nextID := func() string { id := traceID(n); n++; return id }

	// Sweep 1: live differential against the single node, recording the
	// routed answers.
	sweep1 := func(path, body string) {
		t.Helper()
		wantStatus, want := postRaw(t, singleURL, path, nextID(), body)
		gotStatus, got := postRaw(t, routerURL, path, nextID(), body)
		if wantStatus != gotStatus {
			t.Fatalf("%s %s: status single=%d routed=%d", path, body, wantStatus, gotStatus)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s %s: replicated answer differs from single node\nsingle: %s\nrouted: %s",
				path, body, want, got)
		}
		tape = append(tape, recorded{path: path, body: body, status: gotStatus, bytes: got})
	}
	for _, info := range infos {
		relevant, err := json.Marshal(info.relevant)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range info.targets {
			sweep1("/v1/query", fmt.Sprintf(`{"run":%q,"data":%q}`, info.id, target))
			sweep1("/v1/query", fmt.Sprintf(`{"run":%q,"data":%q,"relevant":%s}`, info.id, target, relevant))
			sweep1("/v1/query", fmt.Sprintf(`{"run":%q,"data":%q,"kind":"immediate"}`, info.id, target))
			sweep1("/v1/query", fmt.Sprintf(`{"run":%q,"data":%q,"kind":"derived"}`, info.id, target))
		}
		targets, err := json.Marshal(info.targets)
		if err != nil {
			t.Fatal(err)
		}
		sweep1("/v1/batch", fmt.Sprintf(`{"run":%q,"data":%s}`, info.id, targets))
	}

	// Kill the preferred replica of every shard, and move every shard's
	// epoch on, as a health poll does when it sees a worker reload: every
	// recorded answer is stale in the cache.
	for i := range servers {
		killServer(servers[i][0])
	}
	for _, sh := range rt.shards {
		sh.epoch.Add(1)
	}

	// replay re-issues every recorded request under a fresh trace id, with
	// rawQuery when set, and checks the answer is the recording, byte for
	// byte, under that id.
	replay := func(name, rawQuery string) {
		for _, rec := range tape {
			id := nextID()
			path := rec.path
			if rawQuery != "" {
				path += "?" + rawQuery
			}
			status, got, gotID := postTraced(t, routerURL, path, id, rec.body)
			if status != rec.status || gotID != id {
				t.Fatalf("%s %s %s: status %d under trace id %q, want recorded %d under %q",
					name, rec.path, rec.body, status, gotID, rec.status, id)
			}
			if !bytes.Equal(rec.bytes, got) {
				t.Fatalf("%s %s %s: answer differs from recording\nrecorded: %s\nreplayed: %s",
					name, rec.path, rec.body, rec.bytes, got)
			}
		}
	}
	failoversBefore := rt.failovers.Value()
	replay("failover", "trace=1")
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
