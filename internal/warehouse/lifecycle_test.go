package warehouse

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

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

// TestStressGenerationTableBounded is the regression test for the
// generation-map leak: before the fix, dropRun bumped a run's generation
// but never deleted it, so loading and dropping 10k distinct runs left 10k
// entries behind forever. The table must stay bounded by the set of live,
// queried runs — here at most one — and end empty.
func TestStressGenerationTableBounded(t *testing.T) {
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
		if n := w.cache.generationTableLen(); n > 1 {
			t.Fatalf("cycle %d: generation table holds %d entries, want <= 1 (leak)", i, n)
		}
	}
	if n := w.cache.generationTableLen(); n != 0 {
		t.Fatalf("generation table holds %d entries after dropping every run, want 0", n)
	}
	if n := w.CacheLen(); n != 0 {
		t.Fatalf("cache holds %d closures after dropping every run, want 0", n)
	}
	c := w.CacheCounters()
	checkQuiescentInvariants(t, c, int64(cycles), 0)
	if c.Drops != c.Stores {
		t.Fatalf("every stored closure was dropped with its run: drops=%d stores=%d", c.Drops, c.Stores)
	}
}

// TestGenerationTableBoundedOnFailedLookups: a stream of queries against
// unknown runs (or unknown data) must not grow the generation table either —
// the leader registers a generation before computing, and the error path
// forgets it again.
func TestGenerationTableBoundedOnFailedLookups(t *testing.T) {
	w := loadedWarehouse(t)
	for i := 0; i < 10000; i++ {
		if _, err := w.DeepProvenance(fmt.Sprintf("ghost-%d", i), "d447"); !errors.Is(err, ErrUnknownRun) {
			t.Fatalf("ghost run %d: err = %v, want ErrUnknownRun", i, err)
		}
	}
	if _, err := w.DeepProvenance("fig2", "no-such-data"); !errors.Is(err, ErrUnknownData) {
		t.Fatalf("unknown data: %v", err)
	}
	// Only fig2 may be registered (it has been queried — unsuccessfully —
	// but it exists; the ghosts must all be forgotten).
	if n := w.cache.generationTableLen(); n > 1 {
		t.Fatalf("generation table holds %d entries after failed lookups, want <= 1", n)
	}
}

// TestConcurrentDropFencing is the fencing regression test (run under
// -race): a leader whose run is dropped mid-compute must deliver its result
// to callers but never populate the cache, even though the generation entry
// it fenced against no longer exists.
func TestConcurrentDropFencing(t *testing.T) {
	cc := newClosureCache(1024)
	computeStarted := make(chan struct{})
	release := make(chan struct{})
	stale := func() (*Closure, error) {
		close(computeStarted)
		<-release
		return testClosure("d1", []string{"OLD"}, []string{"d1"}), nil
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, o, err := cc.getOrCompute(context.Background(), "r1", "d1", false, stale)
		if err != nil || o.Outcome != OutcomeMiss {
			t.Errorf("stale leader: outcome=%v err=%v", o.Outcome, err)
			return
		}
		// The caller still gets the computed closure...
		if !c.HasStep("OLD") {
			t.Error("stale leader lost its own result")
		}
	}()
	<-computeStarted
	// Drop the run while the leader is computing. Its generation entry is
	// deleted outright — the leak fix — and the leader must still be fenced.
	cc.dropRun("r1")
	close(release)
	wg.Wait()

	if n := cc.len(); n != 0 {
		t.Fatalf("dropped run's closure was cached (%d entries)", n)
	}
	if c := cc.counters(); c.Stores != 0 {
		t.Fatalf("stores = %d, want 0 (fence must reject the stale result)", c.Stores)
	}
	if n := cc.generationTableLen(); n != 0 {
		t.Fatalf("generation table holds %d entries, want 0", n)
	}
}

// TestConcurrentDropReloadFencing extends the fence across re-registration:
// the run is dropped and re-queried (registering a fresh, strictly larger
// generation and caching a new closure) while the original leader is still
// computing. Because generations are drawn from a monotonic sequence, the
// stale leader can neither store its result nor clobber the new entry.
func TestConcurrentDropReloadFencing(t *testing.T) {
	cc := newClosureCache(1024)
	computeStarted := make(chan struct{})
	release := make(chan struct{})
	stale := func() (*Closure, error) {
		close(computeStarted)
		<-release
		return testClosure("d1", []string{"OLD"}, []string{"d1"}), nil
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := cc.getOrCompute(context.Background(), "r1", "d1", false, stale); err != nil {
			t.Errorf("stale leader: %v", err)
		}
	}()
	<-computeStarted
	cc.dropRun("r1")
	// Re-register the run under a different key, so the fresh query is a
	// new singleflight (the stale leader still owns the "d1" flight slot)
	// and the run's generation entry is re-created.
	fresh := func() (*Closure, error) {
		return testClosure("d2", []string{"NEW"}, []string{"d2"}), nil
	}
	if _, _, err := cc.getOrCompute(context.Background(), "r1", "d2", false, fresh); err != nil {
		t.Fatal(err)
	}
	close(release)
	wg.Wait()

	// Exactly the fresh closure is cached; the stale one failed its fence
	// against the re-registered (strictly larger) generation.
	if n := cc.len(); n != 1 {
		t.Fatalf("cache holds %d entries, want exactly the fresh one", n)
	}
	c, o, err := cc.getOrCompute(context.Background(), "r1", "d2", false, fresh)
	if err != nil || o.Outcome != OutcomeHit || !c.HasStep("NEW") {
		t.Fatalf("fresh closure lost: outcome=%v err=%v", o.Outcome, err)
	}
	if _, o, _ := cc.getOrCompute(context.Background(), "r1", "d1", false, fresh); o.Outcome != OutcomeMiss {
		t.Fatalf("stale key served from cache (outcome=%v), want miss", o.Outcome)
	}
}
