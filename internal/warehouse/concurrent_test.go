package warehouse

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/spec"
)

// waitForCount blocks until a cache counter reaches n (or fails the test
// after a generous deadline). It is how the singleflight tests prove that
// the concurrent misses really were concurrent, and how the drop tests know
// a leader has started.
func waitForCount(t *testing.T, c *atomic.Int64, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("counter reached only %d of %d", c.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// kept adapts a closure source to the cache's compute callback for the
// cache-level tests: every closure it computes may be cached.
func kept(f func() (*Closure, error)) func(func(*Closure)) (*Closure, error) {
	return func(keep func(*Closure)) (*Closure, error) {
		c, err := f()
		if err == nil {
			keep(c)
		}
		return c, err
	}
}

// testKey is the key the cache-level tests look up: any run instance will
// do, since they hand the cache closures of their own.
var testKey = cacheKey{run.Figure2(), "d1"}

// TestConcurrentSingleflightComputesOnce is the acceptance test for the
// thundering-herd path: 32 goroutines miss the same cold key at the same
// time (the leader's computation is gated until all 31 others are blocked
// on the flight), and the closure is computed exactly once.
func TestConcurrentSingleflightComputesOnce(t *testing.T) {
	cc := newMemo(1024, "closure", closureBytes)
	release := make(chan struct{})
	compute := func() (*Closure, error) {
		<-release
		return testClosure("d1", []string{"S1"}, []string{"d1"}), nil
	}

	const goroutines = 32
	results := make([]*Closure, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = cc.Get(nil, testKey, kept(compute))
		}(i)
	}
	waitForCount(t, &cc.sharedWaits, goroutines-1)
	close(release)
	wg.Wait()

	c := cc.Counters()
	if c.Computes != 1 {
		t.Fatalf("cold key computed %d times under %d concurrent misses, want exactly 1", c.Computes, goroutines)
	}
	if c.Misses != 1 || c.SharedWaits != goroutines-1 || c.Hits != 0 {
		t.Fatalf("counters = %+v, want misses=1 sharedWaits=%d hits=0", c, goroutines-1)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !results[i].HasStep("S1") || !results[i].HasData("d1") {
			t.Fatalf("goroutine %d got wrong closure %+v", i, results[i])
		}
		// Closures are immutable: every waiter gets the one computed instance.
		if results[i] != results[0] {
			t.Fatalf("goroutine %d got a different closure instance", i)
		}
	}
	// The key is now cached: one more lookup is a hit without a compute.
	if _, o, err := cc.Get(nil, testKey, kept(compute)); err != nil || o != OutcomeHit {
		t.Fatalf("warm lookup: outcome=%v err=%v, want hit", o, err)
	}
	c = cc.Counters()
	if c.Hits != 1 || c.Computes != 1 {
		t.Fatalf("warm lookup: %+v, want hits=1 computes=1", c)
	}
}

// TestConcurrentSingleflightErrorShared pins the failure path: a failing
// computation runs once, every concurrent waiter receives the same error,
// and the error is not cached (the next miss recomputes).
func TestConcurrentSingleflightErrorShared(t *testing.T) {
	cc := newMemo(1024, "closure", closureBytes)
	release := make(chan struct{})
	boom := errors.New("boom")
	failing := func() (*Closure, error) {
		<-release
		return nil, boom
	}

	const goroutines = 16
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = cc.Get(nil, testKey, kept(failing))
		}(i)
	}
	waitForCount(t, &cc.sharedWaits, goroutines-1)
	close(release)
	wg.Wait()

	if c := cc.Counters(); c.Computes != 1 {
		t.Fatalf("failing compute ran %d times, want 1", c.Computes)
	}
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("goroutine %d: err = %v, want boom", i, err)
		}
	}
	// Errors must not poison the cache: the next miss computes again.
	ok := func() (*Closure, error) {
		return testClosure("d1", nil, []string{"d1"}), nil
	}
	if _, _, err := cc.Get(nil, testKey, kept(ok)); err != nil {
		t.Fatal(err)
	}
	if c := cc.Counters(); c.Computes != 2 {
		t.Fatalf("error was cached: computes = %d, want 2", c.Computes)
	}
}

// TestConcurrentWarehouseHerd hammers one warehouse key through the public
// API from 32 goroutines and checks the counter invariants and the answer.
func TestConcurrentWarehouseHerd(t *testing.T) {
	w := loadedWarehouse(t)
	const goroutines = 32
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := w.DeepProvenance("fig2", "d447")
			if err != nil {
				t.Errorf("herd query: %v", err)
				return
			}
			if c.NumSteps() != 10 {
				t.Errorf("herd query returned %d steps, want 10", c.NumSteps())
			}
		}()
	}
	wg.Wait()
	c := w.CacheCounters()
	if c.Hits+c.Misses+c.SharedWaits != goroutines {
		t.Fatalf("counter leak: hits(%d)+misses(%d)+shared(%d) != %d lookups",
			c.Hits, c.Misses, c.SharedWaits, goroutines)
	}
	if c.Computes != c.Misses {
		t.Fatalf("computes (%d) != misses (%d)", c.Computes, c.Misses)
	}
	if c.Computes < 1 {
		t.Fatal("closure never computed")
	}
}

// checkQuiescentInvariants asserts every CacheCounters invariant documented
// on the type, at a quiescent point (no lookup or removal in flight):
// lookups fully partition into hits/misses/shared-waits, every miss led one
// compute, and every stored closure is either still cached or left through
// exactly one counted exit.
func checkQuiescentInvariants(t *testing.T, c CacheCounters, lookups int64, cached int) {
	t.Helper()
	if c.Hits+c.Misses+c.SharedWaits != lookups {
		t.Fatalf("counter leak: hits(%d)+misses(%d)+shared(%d) != %d lookups",
			c.Hits, c.Misses, c.SharedWaits, lookups)
	}
	if c.Computes != c.Misses {
		t.Fatalf("computes (%d) != misses (%d)", c.Computes, c.Misses)
	}
	if c.Stores > c.Computes {
		t.Fatalf("stores (%d) > computes (%d)", c.Stores, c.Computes)
	}
	if got := c.Evictions + c.Invalidations + c.Drops + int64(cached); c.Stores != got {
		t.Fatalf("removal accounting broken: stores(%d) != evictions(%d)+invalidations(%d)+drops(%d)+cached(%d)",
			c.Stores, c.Evictions, c.Invalidations, c.Drops, cached)
	}
}

// checkRegistryReadsCache asserts that every cache.* counter an attached
// registry reports equals its CacheCounters field: the cache's atomics are
// the only count.
func checkRegistryReadsCache(t *testing.T, reg *obs.Registry, c CacheCounters) {
	t.Helper()
	got := reg.Snapshot().Counters
	for name, want := range map[string]int64{
		"cache.hits": c.Hits, "cache.misses": c.Misses, "cache.shared_waits": c.SharedWaits,
		"cache.computes": c.Computes, "cache.stores": c.Stores, "cache.evictions": c.Evictions,
		"cache.invalidations": c.Invalidations, "cache.drops": c.Drops,
	} {
		if n, ok := got[name]; !ok || n != want {
			t.Fatalf("registry %s = %d (present %v), cache counts %d", name, n, ok, want)
		}
	}
}

// TestStressShardedCacheCounters mixes hits, misses, evictions and
// Invalidate from 32 goroutines against a deliberately tiny cache and
// asserts the global counters stay consistent, the cache stays within
// capacity, and the answers stay correct — run this under -race. A
// registry attached before the traffic reads the same counts, through a
// run drop and a reset.
func TestStressShardedCacheCounters(t *testing.T) {
	const capacity = 8
	w := New(capacity)
	mustT(t, w.RegisterSpec(spec.Phylogenomics()))
	mustT(t, w.LoadRun(run.Figure2()))
	r, _ := w.Run("fig2")
	data := r.AllData()
	reg := obs.NewRegistry()
	w.AttachMetrics(reg)

	const (
		goroutines = 32
		opsPerG    = 300
	)
	queriesPerG := 0
	invalidatesPerG := 0
	for op := 0; op < opsPerG; op++ {
		if op%17 == 16 {
			invalidatesPerG++
		} else {
			queriesPerG++
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < opsPerG; op++ {
				d := data[rng.Intn(len(data))]
				if op%17 == 16 {
					w.Invalidate("fig2", d)
					continue
				}
				c, err := w.DeepProvenance("fig2", d)
				if err != nil {
					t.Errorf("stress query %s: %v", d, err)
					return
				}
				if !c.HasData(d) || c.Root != d {
					t.Errorf("closure of %s lost its root", d)
					return
				}
			}
		}(int64(g) + 1)
	}
	wg.Wait()

	c := w.CacheCounters()
	totalQueries := int64(goroutines * queriesPerG)
	checkQuiescentInvariants(t, c, totalQueries, w.Stats().Closures.Entries)
	// Invalidations counts only removals, so it is bounded by (not equal
	// to) the Invalidate calls issued: invalidating an uncached key — which
	// a tiny LRU cache makes common — is a no-op.
	if want := int64(goroutines * invalidatesPerG); c.Invalidations > want {
		t.Fatalf("invalidations = %d > %d Invalidate calls", c.Invalidations, want)
	}
	if n := w.Stats().Closures.Entries; n > capacity {
		t.Fatalf("cache holds %d entries, capacity %d", n, capacity)
	}
	if c.Evictions == 0 {
		t.Fatalf("stress run on a capacity-%d cache saw no evictions: %+v", capacity, c)
	}
	// The cache still answers correctly after the storm.
	closure, err := w.DeepProvenance("fig2", "d447")
	if err != nil || closure.NumSteps() != 10 {
		t.Fatalf("post-stress query broken: %v", err)
	}
	checkRegistryReadsCache(t, reg, w.CacheCounters())
	if n := reg.Snapshot().Histograms["cache.compute_ns"].Count; n != w.CacheCounters().Misses {
		t.Fatalf("cache.compute_ns holds %d computes, cache counts %d misses", n, w.CacheCounters().Misses)
	}

	cached := int64(w.Stats().Closures.Entries)
	mustT(t, w.DropRun("fig2"))
	if c := w.CacheCounters(); c.Drops != cached {
		t.Fatalf("dropping the run removed %d of %d cached closures", c.Drops, cached)
	}
	checkRegistryReadsCache(t, reg, w.CacheCounters())
	w.ResetCache()
	if c := w.CacheCounters(); c != (CacheCounters{}) {
		t.Fatalf("counters after ResetCache: %+v", c)
	}
	checkRegistryReadsCache(t, reg, CacheCounters{})
}

// TestStressInvalidateGenerations pins "computed exactly once per
// invalidation round": with a cache large enough to avoid evictions, a
// storm of queries computes each key once; after invalidating every key, a
// second storm computes each key exactly once more.
func TestStressInvalidateGenerations(t *testing.T) {
	w := New(4096)
	mustT(t, w.RegisterSpec(spec.Phylogenomics()))
	mustT(t, w.LoadRun(run.Figure2()))
	r, _ := w.Run("fig2")
	data := r.AllData()

	storm := func() {
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(off int) {
				defer wg.Done()
				// Every goroutine visits every key, offset so different
				// goroutines collide on different keys at the same time.
				for j := 0; j < len(data); j++ {
					d := data[(j+off*len(data)/16)%len(data)]
					if _, err := w.DeepProvenance("fig2", d); err != nil {
						t.Errorf("storm query %s: %v", d, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}

	storm()
	if c := w.CacheCounters(); c.Computes != int64(len(data)) {
		t.Fatalf("round 0: %d computes for %d keys, want exactly one each", c.Computes, len(data))
	}
	for _, d := range data {
		w.Invalidate("fig2", d)
	}
	if n := w.Stats().Closures.Entries; n != 0 {
		t.Fatalf("cache not empty after invalidating every key: %d left", n)
	}
	storm()
	if c := w.CacheCounters(); c.Computes != int64(2*len(data)) {
		t.Fatalf("round 1: %d computes total for %d keys, want exactly %d",
			c.Computes, len(data), 2*len(data))
	}
}

// TestConcurrentDropReload races queries against DropRun/LoadRun cycles:
// queries must either answer correctly or fail with ErrUnknownRun, never
// corrupt state, and no closure of a dropped run stays cached.
func TestConcurrentDropReload(t *testing.T) {
	w := loadedWarehouse(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c, err := w.DeepProvenance("fig2", "d447")
				if err != nil {
					if !errors.Is(err, ErrUnknownRun) {
						t.Errorf("unexpected error: %v", err)
						return
					}
					continue
				}
				if c.NumSteps() != 10 {
					t.Errorf("torn closure: %d steps", c.NumSteps())
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if err := w.DropRun("fig2"); err != nil {
			t.Fatal(err)
		}
		if err := w.LoadRun(run.Figure2()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	c, err := w.DeepProvenance("fig2", "d447")
	if err != nil || c.NumSteps() != 10 {
		t.Fatalf("post-churn query broken: %v", err)
	}
	// Only the live instance's closure is left: every dropped one was swept
	// or never kept.
	if n := w.Stats().Closures.Entries; n != 1 {
		t.Fatalf("cache holds %d closures after the churn, want the live run's 1", n)
	}
}

// TestClosureCacheExactCapacity: New(n) holds exactly n closures — n
// distinct keys fill it without an eviction — and the n+1st key evicts the
// least recently used one. n is not a power of two or a multiple of
// anything on purpose: the bound is exact at every size.
func TestClosureCacheExactCapacity(t *testing.T) {
	const capacity = 1000
	w := New(capacity)
	c := testClosure("d1", []string{"S1"}, []string{"d1"})
	lookup := func(i int) Outcome {
		t.Helper()
		key := cacheKey{testKey.r, fmt.Sprintf("d%d", i)}
		_, o, err := w.cache.Get(nil, key, kept(func() (*Closure, error) { return c, nil }))
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	for i := 0; i < capacity; i++ {
		lookup(i)
	}
	if n, ev := w.Stats().Closures.Entries, w.CacheCounters().Evictions; n != capacity || ev != 0 {
		t.Fatalf("%d distinct closures: cache holds %d after %d evictions, want %d after 0", capacity, n, ev, capacity)
	}
	// Touch the oldest key, so the second oldest is the least recently used.
	if o := lookup(0); o != OutcomeHit {
		t.Fatalf("d0 before the bound: %v, want a hit", o)
	}
	lookup(capacity)
	if n, ev := w.Stats().Closures.Entries, w.CacheCounters().Evictions; n != capacity || ev != 1 {
		t.Fatalf("key %d: cache holds %d after %d evictions, want %d after 1", capacity+1, n, ev, capacity)
	}
	if o := lookup(0); o != OutcomeHit {
		t.Fatalf("recently used d0: %v, want a hit", o)
	}
	if o := lookup(1); o != OutcomeMiss {
		t.Fatalf("least recently used d1: %v, want it evicted", o)
	}
}

// TestInvalidateSingleKey checks Invalidate through the public API: only
// the named key is evicted, and the next query recomputes it.
func TestInvalidateSingleKey(t *testing.T) {
	w := loadedWarehouse(t)
	for _, d := range []string{"d447", "d413"} {
		if _, err := w.DeepProvenance("fig2", d); err != nil {
			t.Fatal(err)
		}
	}
	w.Invalidate("fig2", "d447")
	if n := w.Stats().Closures.Entries; n != 1 {
		t.Fatalf("cache has %d entries after single-key invalidate, want 1", n)
	}
	before := w.CacheCounters()
	if _, err := w.DeepProvenance("fig2", "d413"); err != nil { // still cached
		t.Fatal(err)
	}
	if _, err := w.DeepProvenance("fig2", "d447"); err != nil { // recomputed
		t.Fatal(err)
	}
	after := w.CacheCounters()
	if after.Hits != before.Hits+1 || after.Computes != before.Computes+1 {
		t.Fatalf("invalidate semantics wrong: before %+v after %+v", before, after)
	}
}

// TestClosureCacheBytes: the cache's byte count follows its entries through
// every exit — a store, a refresh, an LRU eviction, an invalidation, a run
// drop and a reset — and Stats reports it.
func TestClosureCacheBytes(t *testing.T) {
	w := New(2)
	if err := w.RegisterSpec(spec.Phylogenomics()); err != nil {
		t.Fatal(err)
	}
	if err := w.LoadRun(run.Figure2()); err != nil {
		t.Fatal(err)
	}
	want := func(label string, closures ...*Closure) {
		t.Helper()
		bytes := 0
		for _, c := range closures {
			bytes += closureBytes(cacheKey{c.ix.Run(), c.Root}, c) + w.cache.overhead
		}
		if m := w.Stats().Closures; m.Entries != len(closures) || m.Bytes != bytes {
			t.Fatalf("%s: closure cache %+v, want %d closures of %d bytes", label, m, len(closures), bytes)
		}
	}
	query := func(d string) *Closure {
		t.Helper()
		c, err := w.DeepProvenance("fig2", d)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := query("d447"), query("d413")
	want("two stored", a, b)
	c := query("d411")
	want("one evicted", b, c)
	w.Invalidate("fig2", "d413")
	want("one invalidated", c)
	w.cache.mu.Lock()
	w.cache.insertLocked(cacheKey{c.ix.Run(), "d411"}, c)
	w.cache.mu.Unlock()
	want("refreshed", c)
	if err := w.DropRun("fig2"); err != nil {
		t.Fatal(err)
	}
	want("run dropped")
	if err := w.LoadRun(run.Figure2()); err != nil {
		t.Fatal(err)
	}
	d := query("d447")
	want("stored again", d)
	w.ResetCache()
	want("reset")
}
