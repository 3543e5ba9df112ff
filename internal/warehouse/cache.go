package warehouse

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/run"
)

// closureCache is the equivalent of the paper's temporary table: "when a
// query is executed on a given workflow run, the UAdmin provenance
// information is stored in a temporary table, and does not need to be
// recomputed when switching the user view on the same workflow run".
//
// The cache is built for concurrent serving:
//
//   - Entries live in lock-striped LRU shards keyed by (run instance, data
//     id), so goroutines querying different keys rarely contend on the same
//     mutex. Small capacities collapse to a single shard, preserving exact
//     global LRU order for tiny caches.
//   - Misses go through a per-key singleflight: the first goroutine to
//     miss becomes the leader and computes the closure once; concurrent
//     misses on the same key wait for the leader's result instead of
//     duplicating the closure traversal (no thundering herd).
//   - The fence is the run instance. A run is immutable, so a closure
//     computed from it is never stale; the only question is whether to keep
//     it. The warehouse's leader computes and keeps its closure under the
//     warehouse read lock, and only while the warehouse is open and still
//     serves that instance under its id; DropRun and Close take the write
//     lock before they sweep, so a closure of a dropped run is delivered to
//     its waiters but never cached, and a run re-ingested under the same id
//     is a different key.
//
// Counters are atomic and globally aggregated across shards; see
// CacheCounters for the invariants they maintain. They are the only count
// of each event: an attached registry reads them (attachMetrics).
type closureCache struct {
	shards []*cacheShard

	hits          atomic.Int64
	misses        atomic.Int64
	sharedWaits   atomic.Int64
	stores        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
	drops         atomic.Int64

	// computeNs is the attached registry's cache.compute_ns histogram (nil
	// when detached — the common case — so the hot path pays one atomic
	// pointer load).
	computeNs atomic.Pointer[obs.Histogram]
}

// attachMetrics registers the cache's counters on reg as cache.hits …
// cache.drops, each read from the cache's own atomic at snapshot time, and
// records closure compute times into reg's cache.compute_ns. cache.computes
// reads misses: every miss leads one compute. nil detaches the histogram
// only; see Warehouse.AttachMetrics.
func (cc *closureCache) attachMetrics(reg *obs.Registry) {
	for name, n := range map[string]*atomic.Int64{
		"cache.hits":          &cc.hits,
		"cache.misses":        &cc.misses,
		"cache.shared_waits":  &cc.sharedWaits,
		"cache.computes":      &cc.misses,
		"cache.stores":        &cc.stores,
		"cache.evictions":     &cc.evictions,
		"cache.invalidations": &cc.invalidations,
		"cache.drops":         &cc.drops,
	} {
		reg.CounterFunc(name, n.Load)
	}
	cc.computeNs.Store(reg.Histogram("cache.compute_ns"))
}

type cacheKey struct {
	r    *run.Run
	data string
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
	cc := &closureCache{shards: make([]*cacheShard, n)}
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

// shard hashes a key to its stripe (FNV-1a over the run's id, a separator,
// the data id).
func (cc *closureCache) shard(key cacheKey) *cacheShard {
	if len(cc.shards) == 1 {
		return cc.shards[0]
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for id, i := key.r.ID(), 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * prime64
	}
	h = (h ^ 0xff) * prime64
	for i := 0; i < len(key.data); i++ {
		h = (h ^ uint64(key.data[i])) * prime64
	}
	return cc.shards[h%uint64(len(cc.shards))]
}

// insertLocked adds or refreshes an entry and evicts from the back while
// over capacity. Callers hold sh.mu.
func (sh *cacheShard) insertLocked(key cacheKey, c *Closure, cc *closureCache) {
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
	}
}

// getOrCompute returns the cached closure for key, or computes it exactly
// once under concurrent misses: the first miss leads the flight and runs
// compute without holding any shard lock; every concurrent miss on the same
// key blocks on the flight and shares the result. compute passes its
// closure to keep, at most once, when the cache may store it (the warehouse
// does so under its read lock, only while it still serves key.r); a
// closure it does not keep is delivered to this lookup's waiters and
// dropped. Errors are delivered to all waiters and never cached.
//
// The Observation reports how the lookup was served; when timed is true
// (or a metrics registry is attached) a miss also reports the closure
// compute's wall time. A traced context (obs.StartSpan) additionally gets
// "closure.compute" / "closure.shared-wait" child spans; hits record no
// span of their own — the engine's enclosing "query.lookup" span IS the
// hit's cost — and an untraced context pays only the one nil span check.
func (cc *closureCache) getOrCompute(ctx context.Context, key cacheKey, timed bool, compute func(keep func(*Closure)) (*Closure, error)) (*Closure, Observation, error) {
	sh := cc.shard(key)
	sh.mu.Lock()
	if el, ok := sh.items[key]; ok {
		sh.order.MoveToFront(el)
		c := el.Value.(*cacheEntry).c
		sh.mu.Unlock()
		cc.hits.Add(1)
		return c, Observation{Outcome: OutcomeHit}, nil
	}
	if fl, ok := sh.inflight[key]; ok {
		sh.mu.Unlock()
		cc.sharedWaits.Add(1)
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
	h := cc.computeNs.Load()
	if h != nil {
		timed = true
	}
	var start time.Time
	if timed {
		start = time.Now()
	}
	csp := obs.SpanFromContext(ctx).StartChild("closure.compute")
	c, err := compute(func(c *Closure) {
		sh.mu.Lock()
		sh.insertLocked(key, c, cc)
		cc.stores.Add(1)
		sh.mu.Unlock()
	})
	csp.End()
	var computeNs int64
	if timed {
		computeNs = time.Since(start).Nanoseconds()
	}
	h.Observe(computeNs)

	sh.mu.Lock()
	delete(sh.inflight, key)
	sh.mu.Unlock()
	fl.c, fl.err = c, err
	close(fl.done)
	if err != nil {
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
		Computes:      cc.misses.Load(),
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

// invalidate evicts one key. Invalidations counts only lookups that
// actually removed a cached entry — invalidating an absent key is a no-op,
// not a removal (the counter-drift fix the CacheCounters invariants rely
// on). A leader in flight for the key may store its closure afterwards;
// that closure is as correct as the one evicted.
func (cc *closureCache) invalidate(key cacheKey) {
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
	}
}

// dropRun evicts every cached closure of one run instance (counted as
// Drops). The warehouse calls it under its write lock, after it stopped
// serving r, so no leader can store a closure of r afterwards.
func (cc *closureCache) dropRun(r *run.Run) {
	for _, sh := range cc.shards {
		sh.mu.Lock()
		for key, el := range sh.items {
			if key.r == r {
				sh.order.Remove(el)
				delete(sh.items, key)
				cc.drops.Add(1)
			}
		}
		sh.mu.Unlock()
	}
}

// reset drops every cached closure and zeroes the counters, so the
// post-reset state is indistinguishable from a fresh cache. A leader in
// flight across a reset may still store its (correct) closure, counted
// against the zeroed counters, so reset belongs at quiescent points.
func (cc *closureCache) reset() {
	for _, sh := range cc.shards {
		sh.mu.Lock()
		sh.items = make(map[cacheKey]*list.Element)
		sh.order.Init()
		sh.mu.Unlock()
	}
	cc.hits.Store(0)
	cc.misses.Store(0)
	cc.sharedWaits.Store(0)
	cc.stores.Store(0)
	cc.evictions.Store(0)
	cc.invalidations.Store(0)
	cc.drops.Store(0)
}
