package warehouse

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/wflog"
)

// tinyChurnSpec is the smallest useful workflow (INPUT -> A -> OUTPUT),
// cheap enough to load and drop thousands of times in one test.
func tinyChurnSpec(t *testing.T) *spec.Spec {
	t.Helper()
	s := spec.New("tiny")
	s.MustAddModule(spec.Module{Name: "A"})
	s.MustAddEdge(spec.Input, "A")
	s.MustAddEdge("A", spec.Output)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyChurnEvents is one execution of the tiny spec: step S1 runs module A,
// reading d0 and writing d1.
func tinyChurnEvents() []wflog.Event {
	return []wflog.Event{
		{Seq: 1, Kind: wflog.KindStart, Step: "S1", Module: "A"},
		{Seq: 2, Kind: wflog.KindRead, Step: "S1", Data: "d0"},
		{Seq: 3, Kind: wflog.KindWrite, Step: "S1", Data: "d1"},
	}
}

// inflight returns the number of singleflight flights in progress.
func inflight[K comparable, V any](m *memo[K, V]) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.inflight)
}

// TestStressLoadQueryDropCycles: 10,000 runs loaded, queried and dropped in
// turn leave no closure behind, every stored closure leaves through a
// counted drop, and the counter invariants hold.
func TestStressLoadQueryDropCycles(t *testing.T) {
	w := New(64)
	mustT(t, w.RegisterSpec(tinyChurnSpec(t)))
	events := tinyChurnEvents()

	const cycles = 10000
	for i := 0; i < cycles; i++ {
		id := fmt.Sprintf("run-%d", i)
		mustT(t, w.LoadLog(id, "tiny", events))
		c, err := w.DeepProvenance(id, "d1")
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if !c.HasStep("S1") || !c.HasData("d0") {
			t.Fatalf("cycle %d: wrong closure", i)
		}
		mustT(t, w.DropRun(id))
	}
	if n := w.Stats().Closures.Entries; n != 0 {
		t.Fatalf("cache holds %d closures after dropping every run, want 0", n)
	}
	c := w.CacheCounters()
	checkQuiescentInvariants(t, c, int64(cycles), 0)
	if c.Drops != c.Stores {
		t.Fatalf("every stored closure was dropped with its run: drops=%d stores=%d", c.Drops, c.Stores)
	}
}

// TestStressFailedLookupsLeaveNothing: a stream of queries against unknown
// runs and unknown data caches nothing and leaves no flight behind.
func TestStressFailedLookupsLeaveNothing(t *testing.T) {
	w := loadedWarehouse(t)
	for i := 0; i < 10000; i++ {
		if _, err := w.DeepProvenance(fmt.Sprintf("ghost-%d", i), "d447"); !errors.Is(err, ErrUnknownRun) {
			t.Fatalf("ghost run %d: err = %v, want ErrUnknownRun", i, err)
		}
		if _, err := w.DeepProvenance("fig2", fmt.Sprintf("no-such-%d", i)); !errors.Is(err, ErrUnknownData) {
			t.Fatalf("unknown data %d: err = %v, want ErrUnknownData", i, err)
		}
	}
	if n := w.Stats().Closures.Entries; n != 0 {
		t.Fatalf("failed lookups cached %d closures", n)
	}
	if n := inflight(w.cache); n != 0 {
		t.Fatalf("failed lookups left %d flights", n)
	}
	checkQuiescentInvariants(t, w.CacheCounters(), 10000, 0)
}

// startLeader runs the closure lookup of (r, d) on its own goroutine, holding
// it before the warehouse read lock: the caller holds the write lock and
// waits until the lookup has become the flight's leader. The returned
// channel delivers the lookup's closure.
func startLeader(t *testing.T, w *Warehouse, r *run.Run, d string) <-chan *Closure {
	t.Helper()
	before := w.cache.misses.Load()
	out := make(chan *Closure, 1)
	go func() {
		c, o, err := w.DeepProvenanceObservedCtx(context.Background(), r, d)
		if err != nil || o != OutcomeMiss {
			t.Errorf("leader of %s: outcome=%v err=%v", d, o, err)
		}
		out <- c
	}()
	waitForCount(t, &w.cache.misses, before+1)
	return out
}

// TestConcurrentDropMidCompute: a run dropped while its leader computes is
// fenced by its instance. The caller still gets its closure, and nothing is
// stored.
func TestConcurrentDropMidCompute(t *testing.T) {
	w := loadedWarehouse(t)
	r, err := w.Run("fig2")
	mustT(t, err)
	w.mu.Lock()
	done := startLeader(t, w, r, "d447")
	mustT(t, w.dropRunLocked("fig2"))
	w.mu.Unlock()

	c := <-done
	if c == nil || c.NumSteps() != 10 {
		t.Fatalf("leader of a dropped run lost its closure: %+v", c)
	}
	if ix, _, _ := c.Bits(); ix != r.Index() {
		t.Fatal("closure is not over the dropped run's index")
	}
	if n := w.Stats().Closures.Entries; n != 0 {
		t.Fatalf("dropped run's closure was cached (%d entries)", n)
	}
	if n := inflight(w.cache); n != 0 {
		t.Fatalf("%d flights left", n)
	}
	cs := w.CacheCounters()
	if cs.Stores != 0 {
		t.Fatalf("stores = %d, want 0", cs.Stores)
	}
	checkQuiescentInvariants(t, cs, 1, 0)
}

// TestConcurrentDropReingestMidCompute: the run is dropped and a new
// instance loaded under the same id while the old instance's leader
// computes. The old leader does not store, and the new instance computes
// and caches its own closure.
func TestConcurrentDropReingestMidCompute(t *testing.T) {
	w := loadedWarehouse(t)
	old, err := w.Run("fig2")
	mustT(t, err)
	fresh := run.Figure2()
	w.mu.Lock()
	done := startLeader(t, w, old, "d447")
	mustT(t, w.dropRunLocked("fig2"))
	w.runs["fig2"] = &runTables{specName: fresh.SpecName(), run: fresh}
	w.mu.Unlock()

	c, o, err := w.DeepProvenanceObservedCtx(context.Background(), fresh, "d447")
	if err != nil || o != OutcomeMiss {
		t.Fatalf("new instance: outcome=%v err=%v, want its own miss", o, err)
	}
	if ix, _, _ := c.Bits(); ix != fresh.Index() {
		t.Fatal("new instance's closure is not over its index")
	}
	stale := <-done
	if ix, _, _ := stale.Bits(); ix != old.Index() {
		t.Fatal("old leader's closure is not over the old index")
	}
	if n := w.Stats().Closures.Entries; n != 1 {
		t.Fatalf("cache holds %d entries, want exactly the new instance's", n)
	}
	if cs := w.CacheCounters(); cs.Stores != 1 {
		t.Fatalf("stores = %d, want 1 (the new instance's)", cs.Stores)
	}
	again, o, err := w.DeepProvenanceObservedCtx(context.Background(), fresh, "d447")
	if err != nil || o != OutcomeHit || again != c {
		t.Fatalf("new instance's closure not served from cache: outcome=%v err=%v", o, err)
	}
	if _, o, _ := w.DeepProvenanceObservedCtx(context.Background(), old, "d447"); o != OutcomeMiss {
		t.Fatalf("old instance served from cache (outcome=%v), want miss", o)
	}
	checkQuiescentInvariants(t, w.CacheCounters(), 4, w.Stats().Closures.Entries)
}
