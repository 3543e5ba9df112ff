package warehouse

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

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
//   - Entries live in one LRU list under one mutex, keyed by (run
//     instance, data id): the cache holds exactly its capacity, and the
//     closure evicted is always the least recently used. The lock covers
//     map and list updates only, never a closure traversal.
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
// Counters are atomic; see CacheCounters for the invariants they maintain.
// They are the only count of each event: an attached registry reads them
// (attachMetrics).
type closureCache struct {
	mu       sync.Mutex
	cap      int
	items    map[cacheKey]*list.Element
	order    *list.List           // front = most recently used
	inflight map[cacheKey]*flight // the singleflight table
	bytes    int                  // what the cached entries hold (entryBytes)

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

// entryOverhead is the cache's own share of an entry: the entry and its list
// element as the allocator rounds them (to 16 bytes at these sizes), and
// its map slot (key, element pointer, control byte), counted twice: a map
// keeps between 8/7 and 16/7 slots per entry.
const entryOverhead = int((unsafe.Sizeof(cacheEntry{})+15)&^15+(unsafe.Sizeof(list.Element{})+15)&^15) +
	2*int(unsafe.Sizeof(cacheKey{})+unsafe.Sizeof((*list.Element)(nil))+1)

// entryBytes is what one cached closure costs: the closure (Closure.Bytes),
// the entry's overhead and its key's data id, which the closure's Root
// shares.
func entryBytes(key cacheKey, c *Closure) int { return c.Bytes() + entryOverhead + len(key.data) }

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
// instrumentation: how the lookup was served. A miss's compute time goes
// to the attached registry's cache.compute_ns.
type Observation struct {
	Outcome Outcome
}

func newClosureCache(capacity int) *closureCache {
	return &closureCache{
		cap:      capacity,
		items:    make(map[cacheKey]*list.Element),
		order:    list.New(),
		inflight: make(map[cacheKey]*flight),
	}
}

// insertLocked adds or refreshes an entry and evicts from the back while
// over capacity. Callers hold cc.mu.
func (cc *closureCache) insertLocked(key cacheKey, c *Closure) {
	cc.bytes += entryBytes(key, c)
	if el, ok := cc.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		cc.bytes -= entryBytes(key, ent.c)
		ent.c = c
		cc.order.MoveToFront(el)
		return
	}
	cc.items[key] = cc.order.PushFront(&cacheEntry{key: key, c: c})
	for len(cc.items) > cc.cap {
		cc.removeLocked(cc.order.Back())
		cc.evictions.Add(1)
	}
}

// removeLocked removes one entry. Callers hold cc.mu.
func (cc *closureCache) removeLocked(el *list.Element) {
	ent := cc.order.Remove(el).(*cacheEntry)
	delete(cc.items, ent.key)
	cc.bytes -= entryBytes(ent.key, ent.c)
}

// getOrCompute returns the cached closure for key, or computes it exactly
// once under concurrent misses: the first miss leads the flight and runs
// compute without holding the cache lock; every concurrent miss on the same
// key blocks on the flight and shares the result. compute passes its
// closure to keep, at most once, when the cache may store it (the warehouse
// does so under its read lock, only while it still serves key.r); a
// closure it does not keep is delivered to this lookup's waiters and
// dropped. Errors are delivered to all waiters and never cached.
//
// The Observation reports how the lookup was served; when a metrics
// registry is attached, a miss's compute is timed into cache.compute_ns.
// A traced context (obs.StartSpan) additionally gets
// "closure.compute" / "closure.shared-wait" child spans; hits record no
// span of their own — the engine's enclosing "query.lookup" span IS the
// hit's cost — and an untraced context pays only the one nil span check.
func (cc *closureCache) getOrCompute(ctx context.Context, key cacheKey, compute func(keep func(*Closure)) (*Closure, error)) (*Closure, Observation, error) {
	cc.mu.Lock()
	if el, ok := cc.items[key]; ok {
		cc.order.MoveToFront(el)
		c := el.Value.(*cacheEntry).c
		cc.mu.Unlock()
		cc.hits.Add(1)
		return c, Observation{Outcome: OutcomeHit}, nil
	}
	if fl, ok := cc.inflight[key]; ok {
		cc.mu.Unlock()
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
	cc.inflight[key] = fl
	cc.mu.Unlock()

	cc.misses.Add(1)
	h := cc.computeNs.Load()
	var start time.Time
	if h != nil {
		start = time.Now()
	}
	csp := obs.SpanFromContext(ctx).StartChild("closure.compute")
	c, err := compute(func(c *Closure) {
		cc.mu.Lock()
		cc.insertLocked(key, c)
		cc.stores.Add(1)
		cc.mu.Unlock()
	})
	csp.End()
	if h != nil {
		h.Observe(time.Since(start).Nanoseconds())
	}

	cc.mu.Lock()
	delete(cc.inflight, key)
	cc.mu.Unlock()
	fl.c, fl.err = c, err
	close(fl.done)
	if err != nil {
		return nil, Observation{Outcome: OutcomeMiss}, err
	}
	return c, Observation{Outcome: OutcomeMiss}, nil
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

// len returns the number of cached entries.
func (cc *closureCache) len() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.items)
}

// held returns the number of cached entries and the bytes they hold
// (entryBytes).
func (cc *closureCache) held() (entries, bytes int) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.items), cc.bytes
}

// invalidate evicts one key. Invalidations counts only lookups that
// actually removed a cached entry — invalidating an absent key is a no-op,
// not a removal (the counter-drift fix the CacheCounters invariants rely
// on). A leader in flight for the key may store its closure afterwards;
// that closure is as correct as the one evicted.
func (cc *closureCache) invalidate(key cacheKey) {
	cc.mu.Lock()
	el, removed := cc.items[key]
	if removed {
		cc.removeLocked(el)
	}
	cc.mu.Unlock()
	if removed {
		cc.invalidations.Add(1)
	}
}

// dropRun evicts every cached closure of one run instance (counted as
// Drops). The warehouse calls it under its write lock, after it stopped
// serving r, so no leader can store a closure of r afterwards.
func (cc *closureCache) dropRun(r *run.Run) {
	cc.mu.Lock()
	for key, el := range cc.items {
		if key.r == r {
			cc.removeLocked(el)
			cc.drops.Add(1)
		}
	}
	cc.mu.Unlock()
}

// reset drops every cached closure and zeroes the counters, so the
// post-reset state is indistinguishable from a fresh cache. A leader in
// flight across a reset may still store its (correct) closure, counted
// against the zeroed counters, so reset belongs at quiescent points.
func (cc *closureCache) reset() {
	cc.mu.Lock()
	cc.items = make(map[cacheKey]*list.Element)
	cc.order.Init()
	cc.bytes = 0
	cc.mu.Unlock()
	cc.hits.Store(0)
	cc.misses.Store(0)
	cc.sharedWaits.Store(0)
	cc.stores.Store(0)
	cc.evictions.Store(0)
	cc.invalidations.Store(0)
	cc.drops.Store(0)
}
