package warehouse

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// closureCache is the equivalent of the paper's temporary table: "when a
// query is executed on a given workflow run, the UAdmin provenance
// information is stored in a temporary table, and does not need to be
// recomputed when switching the user view on the same workflow run".
//
// The cache is built for concurrent serving:
//
//   - Entries live in lock-striped LRU shards keyed by a hash of
//     (run id, data id), so goroutines querying different keys rarely
//     contend on the same mutex. Small capacities collapse to a single
//     shard, preserving exact global LRU order for tiny caches.
//   - Misses go through a per-key singleflight: the first goroutine to
//     miss becomes the leader and computes the closure once; concurrent
//     misses on the same key wait for the leader's result instead of
//     duplicating the ConnectBy traversal (no thundering herd).
//   - Every queried run has a generation drawn from a cache-global
//     monotonic sequence. Invalidate and reset advance it, dropRun and
//     reset unregister it, and a leader only stores its result if the run
//     is still registered at the generation it read before computing — a
//     closure computed from dropped or invalidated state is delivered to
//     its waiters but never cached. Because the sequence never repeats a
//     value, a run dropped and re-registered can never alias a stale
//     leader's generation, which is what lets dropRun *delete* the
//     generation entry instead of keeping a tombstone forever: the table
//     is bounded by the set of live, queried runs.
//
// Counters are atomic and globally aggregated across shards; see
// CacheCounters for the invariants they maintain.
type closureCache struct {
	shards []*cacheShard

	hits          atomic.Int64
	misses        atomic.Int64
	sharedWaits   atomic.Int64
	computes      atomic.Int64
	stores        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
	drops         atomic.Int64

	genMu  sync.Mutex
	gens   map[string]uint64 // run id -> generation (live, queried runs only)
	genSeq uint64            // last issued generation; strictly increases

	// obs mirrors the lifecycle counters into an attached metrics registry
	// (nil when detached — the common case — so the hot path pays one
	// atomic pointer load).
	obs atomic.Pointer[cacheMetrics]
}

// cacheMetrics are the cache's instruments in an attached registry,
// resolved once at attach time so recording never touches the registry map.
type cacheMetrics struct {
	hits, misses, sharedWaits       *obs.Counter
	computes, stores                *obs.Counter
	evictions, invalidations, drops *obs.Counter
	computeNs                       *obs.Histogram
}

// attachMetrics wires the cache to a registry (nil detaches).
func (cc *closureCache) attachMetrics(reg *obs.Registry) {
	if reg == nil {
		cc.obs.Store(nil)
		return
	}
	cc.obs.Store(&cacheMetrics{
		hits:          reg.Counter("cache.hits"),
		misses:        reg.Counter("cache.misses"),
		sharedWaits:   reg.Counter("cache.shared_waits"),
		computes:      reg.Counter("cache.computes"),
		stores:        reg.Counter("cache.stores"),
		evictions:     reg.Counter("cache.evictions"),
		invalidations: reg.Counter("cache.invalidations"),
		drops:         reg.Counter("cache.drops"),
		computeNs:     reg.Histogram("cache.compute_ns"),
	})
}

type cacheKey struct {
	run, data string
}

type cacheEntry struct {
	key cacheKey
	c   *Closure
}

// cacheShard is one lock stripe: an LRU list plus the in-flight table for
// the singleflight protocol.
type cacheShard struct {
	mu       sync.Mutex
	cap      int
	items    map[cacheKey]*list.Element
	order    *list.List // front = most recently used
	inflight map[cacheKey]*flight
}

// flight is one in-progress closure computation. done is closed by the
// leader after c/err are set; waiters must not read them before that.
type flight struct {
	done chan struct{}
	c    *Closure
	err  error
}

// Outcome classifies one closure-cache lookup — the dimension the query
// latency histograms are split by.
type Outcome uint8

const (
	// OutcomeHit: the closure was served from the cache.
	OutcomeHit Outcome = iota
	// OutcomeMiss: this lookup led the singleflight and computed the
	// closure.
	OutcomeMiss
	// OutcomeSharedWait: this lookup piggy-backed on another goroutine's
	// in-flight computation.
	OutcomeSharedWait
)

// String returns the name used in metrics names and trace output.
func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeMiss:
		return "miss"
	case OutcomeSharedWait:
		return "shared-wait"
	}
	return "unknown"
}

// Observation is what one cache lookup reports back to the caller for
// instrumentation: how the lookup was served and, for a miss, how long the
// closure compute took. ComputeNs is zero unless timing was requested (or
// a registry is attached) and the outcome is OutcomeMiss.
type Observation struct {
	Outcome   Outcome
	ComputeNs int64
}

// shardsFor picks the stripe count: one shard per 64 cached closures,
// capped at 16. Tiny caches (like the eviction tests' capacity-2 cache)
// stay single-sharded so global LRU order is exact.
func shardsFor(capacity int) int {
	n := capacity / 64
	if n < 1 {
		return 1
	}
	if n > 16 {
		return 16
	}
	return n
}

func newClosureCache(capacity int) *closureCache {
	n := shardsFor(capacity)
	perShard := (capacity + n - 1) / n
	cc := &closureCache{
		shards: make([]*cacheShard, n),
		gens:   make(map[string]uint64),
	}
	for i := range cc.shards {
		cc.shards[i] = &cacheShard{
			cap:      perShard,
			items:    make(map[cacheKey]*list.Element),
			order:    list.New(),
			inflight: make(map[cacheKey]*flight),
		}
	}
	return cc
}

// shard hashes a key to its stripe (FNV-1a over run, a separator, data).
func (cc *closureCache) shard(key cacheKey) *cacheShard {
	if len(cc.shards) == 1 {
		return cc.shards[0]
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key.run); i++ {
		h = (h ^ uint64(key.run[i])) * prime64
	}
	h = (h ^ 0xff) * prime64
	for i := 0; i < len(key.data); i++ {
		h = (h ^ uint64(key.data[i])) * prime64
	}
	return cc.shards[h%uint64(len(cc.shards))]
}

// generation returns the run's current generation, registering the run on
// first use so later bumps (invalidate) and unregistrations (dropRun,
// reset) are visible to an in-flight leader that read the generation
// first. Generations come from a cache-global monotonic sequence, so a
// value can never repeat: a run dropped and later re-registered gets a
// strictly larger generation than any a pre-drop leader could hold.
func (cc *closureCache) generation(runID string) uint64 {
	cc.genMu.Lock()
	defer cc.genMu.Unlock()
	g, ok := cc.gens[runID]
	if !ok {
		cc.genSeq++
		g = cc.genSeq
		cc.gens[runID] = g
	}
	return g
}

// generationIs is the leader's store-time fence: it reports whether the
// run is still registered at generation g. A run dropped or reset since
// the leader read g is no longer registered, and a run re-registered since
// carries a strictly larger generation, so both fail the check.
func (cc *closureCache) generationIs(runID string, g uint64) bool {
	cc.genMu.Lock()
	defer cc.genMu.Unlock()
	cur, ok := cc.gens[runID]
	return ok && cur == g
}

// forgetGeneration removes the run's generation entry if it is still
// exactly g — the error path's cleanup, keeping the table bounded when
// queries against unknown runs or data register a generation whose compute
// then fails. Removing the entry is always safe: any other in-flight
// leader holding g simply fails its store-time fence and skips caching.
func (cc *closureCache) forgetGeneration(runID string, g uint64) {
	cc.genMu.Lock()
	if cur, ok := cc.gens[runID]; ok && cur == g {
		delete(cc.gens, runID)
	}
	cc.genMu.Unlock()
}

// bumpRun advances a registered run's generation so in-flight computations
// started before the bump cannot populate the cache. An unregistered run
// needs no bump: every leader registers the run (generation) before
// starting its compute, so no fenceable computation can exist.
func (cc *closureCache) bumpRun(runID string) {
	cc.genMu.Lock()
	if _, ok := cc.gens[runID]; ok {
		cc.genSeq++
		cc.gens[runID] = cc.genSeq
	}
	cc.genMu.Unlock()
}

// dropGeneration unregisters a run. In-flight leaders fail generationIs on
// the missing entry, and — unlike the old bump-and-keep scheme — nothing
// is left behind, so run churn cannot grow the table without bound.
func (cc *closureCache) dropGeneration(runID string) {
	cc.genMu.Lock()
	delete(cc.gens, runID)
	cc.genMu.Unlock()
}

// resetGenerations unregisters every run (reset). genSeq is deliberately
// not reset: monotonicity across resets is what makes deletion safe.
func (cc *closureCache) resetGenerations() {
	cc.genMu.Lock()
	cc.gens = make(map[string]uint64)
	cc.genMu.Unlock()
}

// generationTableLen returns the number of registered runs — bounded by
// the live, queried runs (the lifecycle tests pin this).
func (cc *closureCache) generationTableLen() int {
	cc.genMu.Lock()
	defer cc.genMu.Unlock()
	return len(cc.gens)
}

// insertLocked adds or refreshes an entry and evicts from the back while
// over capacity. Callers hold sh.mu.
func (sh *cacheShard) insertLocked(key cacheKey, c *Closure, cc *closureCache, m *cacheMetrics) {
	if el, ok := sh.items[key]; ok {
		el.Value.(*cacheEntry).c = c
		sh.order.MoveToFront(el)
		return
	}
	sh.items[key] = sh.order.PushFront(&cacheEntry{key: key, c: c})
	for len(sh.items) > sh.cap {
		back := sh.order.Back()
		sh.order.Remove(back)
		delete(sh.items, back.Value.(*cacheEntry).key)
		cc.evictions.Add(1)
		if m != nil {
			m.evictions.Inc()
		}
	}
}

// getOrCompute returns the cached closure for (runID, d), or computes it
// exactly once per generation under concurrent misses: the first miss
// leads the flight and runs compute without holding any shard lock; every
// concurrent miss on the same key blocks on the flight and shares the
// result. Errors are delivered to all waiters and never cached.
//
// The Observation reports how the lookup was served; when timed is true
// (or a metrics registry is attached) a miss also reports the closure
// compute's wall time. A traced context (obs.StartSpan) additionally gets
// "closure.compute" / "closure.shared-wait" child spans; hits record no
// span of their own — the engine's enclosing "query.lookup" span IS the
// hit's cost — and an untraced context pays only the one nil span check.
func (cc *closureCache) getOrCompute(ctx context.Context, runID, d string, timed bool, compute func() (*Closure, error)) (*Closure, Observation, error) {
	key := cacheKey{runID, d}
	sh := cc.shard(key)
	m := cc.obs.Load()
	sh.mu.Lock()
	if el, ok := sh.items[key]; ok {
		sh.order.MoveToFront(el)
		c := el.Value.(*cacheEntry).c
		sh.mu.Unlock()
		cc.hits.Add(1)
		if m != nil {
			m.hits.Inc()
		}
		return c, Observation{Outcome: OutcomeHit}, nil
	}
	if fl, ok := sh.inflight[key]; ok {
		sh.mu.Unlock()
		cc.sharedWaits.Add(1)
		if m != nil {
			m.sharedWaits.Inc()
		}
		wsp := obs.SpanFromContext(ctx).StartChild("closure.shared-wait")
		<-fl.done
		wsp.End()
		if fl.err != nil {
			return nil, Observation{Outcome: OutcomeSharedWait}, fl.err
		}
		return fl.c, Observation{Outcome: OutcomeSharedWait}, nil
	}
	fl := &flight{done: make(chan struct{})}
	sh.inflight[key] = fl
	sh.mu.Unlock()

	cc.misses.Add(1)
	gen := cc.generation(runID)
	cc.computes.Add(1)
	if m != nil {
		m.misses.Inc()
		m.computes.Inc()
		timed = true
	}
	var start time.Time
	if timed {
		start = time.Now()
	}
	csp := obs.SpanFromContext(ctx).StartChild("closure.compute")
	c, err := compute()
	csp.End()
	var computeNs int64
	if timed {
		computeNs = time.Since(start).Nanoseconds()
	}
	if m != nil {
		m.computeNs.Observe(computeNs)
	}

	sh.mu.Lock()
	delete(sh.inflight, key)
	if err == nil && cc.generationIs(runID, gen) {
		sh.insertLocked(key, c, cc, m)
		cc.stores.Add(1)
		if m != nil {
			m.stores.Inc()
		}
	}
	sh.mu.Unlock()
	fl.c, fl.err = c, err
	close(fl.done)
	if err != nil {
		// A failed compute must not pin a generation entry forever (a
		// stream of misspelled run ids would otherwise grow the table).
		cc.forgetGeneration(runID, gen)
		return nil, Observation{Outcome: OutcomeMiss, ComputeNs: computeNs}, err
	}
	return c, Observation{Outcome: OutcomeMiss, ComputeNs: computeNs}, nil
}

func (cc *closureCache) stats() (hits, misses int64) {
	return cc.hits.Load(), cc.misses.Load()
}

// counters snapshots every cache counter.
func (cc *closureCache) counters() CacheCounters {
	return CacheCounters{
		Hits:          cc.hits.Load(),
		Misses:        cc.misses.Load(),
		SharedWaits:   cc.sharedWaits.Load(),
		Computes:      cc.computes.Load(),
		Stores:        cc.stores.Load(),
		Evictions:     cc.evictions.Load(),
		Invalidations: cc.invalidations.Load(),
		Drops:         cc.drops.Load(),
	}
}

// len returns the number of cached entries across all shards.
func (cc *closureCache) len() int {
	n := 0
	for _, sh := range cc.shards {
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
}

// invalidate evicts one key and bumps the run's generation so an in-flight
// computation of any key of that run cannot re-populate the cache with a
// result from before the invalidation. Invalidations counts only lookups
// that actually removed a cached entry — invalidating an absent key is a
// no-op, not a removal (the counter-drift fix the CacheCounters invariants
// rely on).
func (cc *closureCache) invalidate(runID, d string) {
	cc.bumpRun(runID)
	key := cacheKey{runID, d}
	sh := cc.shard(key)
	sh.mu.Lock()
	removed := false
	if el, ok := sh.items[key]; ok {
		sh.order.Remove(el)
		delete(sh.items, key)
		removed = true
	}
	sh.mu.Unlock()
	if removed {
		cc.invalidations.Add(1)
		if m := cc.obs.Load(); m != nil {
			m.invalidations.Inc()
		}
	}
}

// dropRun evicts every cached closure belonging to one run (counted as
// Drops) and unregisters the run's generation. The bump happens first so
// a leader finishing between the entry sweep and the generation delete is
// still fenced.
func (cc *closureCache) dropRun(runID string) {
	cc.bumpRun(runID)
	m := cc.obs.Load()
	for _, sh := range cc.shards {
		sh.mu.Lock()
		for key, el := range sh.items {
			if key.run == runID {
				sh.order.Remove(el)
				delete(sh.items, key)
				cc.drops.Add(1)
				if m != nil {
					m.drops.Inc()
				}
			}
		}
		sh.mu.Unlock()
	}
	cc.dropGeneration(runID)
}

// reset drops every cached closure, unregisters every generation, and
// zeroes the counters (so the post-reset state is indistinguishable from a
// fresh cache, and every CacheCounters invariant holds trivially).
func (cc *closureCache) reset() {
	cc.resetGenerations()
	for _, sh := range cc.shards {
		sh.mu.Lock()
		sh.items = make(map[cacheKey]*list.Element)
		sh.order.Init()
		sh.mu.Unlock()
	}
	cc.hits.Store(0)
	cc.misses.Store(0)
	cc.sharedWaits.Store(0)
	cc.computes.Store(0)
	cc.stores.Store(0)
	cc.evictions.Store(0)
	cc.invalidations.Store(0)
	cc.drops.Store(0)
}
