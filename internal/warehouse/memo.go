package warehouse

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/obs"
)

// memo is a bounded, concurrent, build-once map of derived state, and the
// one cache type a worker keeps: the warehouse's UAdmin closures (the
// paper's temporary table: "when a query is executed on a given workflow
// run, the UAdmin provenance information is stored in a temporary table,
// and does not need to be recomputed when switching the user view on the
// same workflow run"), and the views and mappings that the re-projection
// reads.
//
//   - Entries live in one LRU list under one mutex: the memo holds exactly
//     its capacity, and the entry evicted is always the least recently
//     used. The lock covers map and list updates only, never a build.
//   - Misses go through a per-key singleflight: the first goroutine to
//     miss becomes the leader and builds the value once; concurrent misses
//     on the same key wait for the leader's result instead of duplicating
//     the build (no thundering herd).
//   - A build stores its value only by passing it to keep, so the memo's
//     owner decides what may be stored (the warehouse keeps a closure or a
//     mapping only while it still serves its run). An error reaches the
//     lookup's waiters and is never stored: the next miss builds again.
//   - One ledger: Held counts the entries and the bytes they hold, each
//     entry's size (the size function) plus the memo's own overhead.
//
// Counters are atomic; see CacheCounters for the invariants they maintain.
// They are the only count of each event: an attached registry reads them
// (attachMetrics). An evicted value stays valid for whoever still holds it.
type memo[K comparable, V any] struct {
	mu       sync.Mutex
	cap      int
	items    map[K]*list.Element
	order    *list.List // front = most recently used
	inflight map[K]*flight[V]
	bytes    int // size plus overhead of every held entry

	size     func(K, V) int
	overhead int
	// Built once: a concatenation per miss would cost an allocation each.
	computeSpan, waitSpan string

	hits          atomic.Int64
	misses        atomic.Int64
	sharedWaits   atomic.Int64
	stores        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
	drops         atomic.Int64

	// computeNs is the attached registry's compute histogram (nil when
	// detached — the common case — so a miss pays one atomic pointer load).
	computeNs atomic.Pointer[obs.Histogram]
}

type memoEntry[K comparable, V any] struct {
	key K
	v   V
}

// flight is one in-progress build. done is closed by the leader after v and
// err are set; waiters must not read them before that.
type flight[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// newMemo returns a memo holding exactly capacity entries. A traced miss
// records a "<span>.compute" span, or "<span>.shared-wait" when it waits on
// another goroutine's build. size is what one entry's key and value hold
// beyond the memo's own overhead; it runs under the memo's lock.
func newMemo[K comparable, V any](capacity int, span string, size func(K, V) int) *memo[K, V] {
	var ent memoEntry[K, V]
	return &memo[K, V]{
		cap:      capacity,
		items:    make(map[K]*list.Element),
		order:    list.New(),
		inflight: make(map[K]*flight[V]),
		size:     size,
		// The memo's own share of an entry: the entry and its list element
		// as the allocator rounds them (to 16 bytes, near enough at these
		// sizes), and its map slot (key, element pointer, control byte),
		// counted twice: a map keeps between 8/7 and 16/7 slots per entry.
		overhead: int((unsafe.Sizeof(ent)+15)&^15+(unsafe.Sizeof(list.Element{})+15)&^15) +
			2*int(unsafe.Sizeof(ent.key)+unsafe.Sizeof((*list.Element)(nil))+1),
		computeSpan: span + ".compute",
		waitSpan:    span + ".shared-wait",
	}
}

// entryBytes is what one held entry counts for in the ledger.
func (m *memo[K, V]) entryBytes(key K, v V) int { return m.size(key, v) + m.overhead }

// Outcome classifies one memo lookup — the dimension the query latency
// histograms are split by.
type Outcome uint8

const (
	// OutcomeHit: the value was served from the memo.
	OutcomeHit Outcome = iota
	// OutcomeMiss: this lookup led the singleflight and built the value.
	OutcomeMiss
	// OutcomeSharedWait: this lookup piggy-backed on another goroutine's
	// in-flight build.
	OutcomeSharedWait
)

// String returns the name used in metrics names and trace output.
func (o Outcome) String() string {
	if names := [...]string{"hit", "miss", "shared-wait"}; int(o) < len(names) {
		return names[o]
	}
	return "unknown"
}

// insertLocked adds or refreshes an entry and evicts from the back while
// over capacity. Callers hold m.mu.
func (m *memo[K, V]) insertLocked(key K, v V) {
	m.bytes += m.entryBytes(key, v)
	if el, ok := m.items[key]; ok {
		ent := el.Value.(*memoEntry[K, V])
		m.bytes -= m.entryBytes(key, ent.v)
		ent.v = v
		m.order.MoveToFront(el)
		return
	}
	m.items[key] = m.order.PushFront(&memoEntry[K, V]{key: key, v: v})
	for len(m.items) > m.cap {
		m.removeLocked(m.order.Back())
		m.evictions.Add(1)
	}
}

// removeLocked removes one entry. Callers hold m.mu.
func (m *memo[K, V]) removeLocked(el *list.Element) {
	ent := m.order.Remove(el).(*memoEntry[K, V])
	delete(m.items, ent.key)
	m.bytes -= m.entryBytes(ent.key, ent.v)
}

// Get returns the value held under key, or builds it exactly once under
// concurrent misses: the first miss leads the flight and runs build without
// holding the memo's lock; every concurrent miss on the same key blocks on
// the flight and shares the result. build passes its value to keep, at most
// once, when the memo may store it; a value it does not keep is delivered
// to this lookup's waiters and dropped. Errors are delivered to all waiters
// and never stored.
//
// The Outcome reports how the lookup was served; when a metrics registry
// is attached, a miss's build is timed into its compute histogram. A traced
// parent span gets a "<span>.compute" or "<span>.shared-wait" child; a hit
// records no span of its own, and an untraced lookup (nil parent) pays only
// the nil check.
func (m *memo[K, V]) Get(parent *obs.Span, key K, build func(keep func(V)) (V, error)) (V, Outcome, error) {
	m.mu.Lock()
	if el, ok := m.items[key]; ok {
		m.order.MoveToFront(el)
		v := el.Value.(*memoEntry[K, V]).v
		m.mu.Unlock()
		m.hits.Add(1)
		return v, OutcomeHit, nil
	}
	if fl, ok := m.inflight[key]; ok {
		m.mu.Unlock()
		m.sharedWaits.Add(1)
		wsp := parent.StartChild(m.waitSpan)
		<-fl.done
		wsp.End()
		return fl.v, OutcomeSharedWait, fl.err
	}
	fl := &flight[V]{done: make(chan struct{})}
	m.inflight[key] = fl
	m.mu.Unlock()

	m.misses.Add(1)
	h := m.computeNs.Load()
	var start time.Time
	if h != nil {
		start = time.Now()
	}
	csp := parent.StartChild(m.computeSpan)
	v, err := build(func(v V) {
		m.mu.Lock()
		m.insertLocked(key, v)
		m.stores.Add(1)
		m.mu.Unlock()
	})
	csp.End()
	if h != nil {
		h.Observe(time.Since(start).Nanoseconds())
	}

	m.mu.Lock()
	delete(m.inflight, key)
	m.mu.Unlock()
	fl.v, fl.err = v, err
	close(fl.done)
	return v, OutcomeMiss, err
}

// attachMetrics registers the memo's counters on reg as <prefix>.hits …
// <prefix>.drops, each read from the memo's own atomic at snapshot time,
// and records build times into reg's <prefix>.compute_ns. <prefix>.computes
// reads misses: every miss leads one build. nil detaches the histogram
// only.
func (m *memo[K, V]) attachMetrics(reg *obs.Registry, prefix string) {
	for name, n := range map[string]*atomic.Int64{
		"hits":          &m.hits,
		"misses":        &m.misses,
		"shared_waits":  &m.sharedWaits,
		"computes":      &m.misses,
		"stores":        &m.stores,
		"evictions":     &m.evictions,
		"invalidations": &m.invalidations,
		"drops":         &m.drops,
	} {
		reg.CounterFunc(prefix+"."+name, n.Load)
	}
	m.computeNs.Store(reg.Histogram(prefix + ".compute_ns"))
}

// Counters snapshots every counter.
func (m *memo[K, V]) Counters() CacheCounters {
	return CacheCounters{
		Hits:          m.hits.Load(),
		Misses:        m.misses.Load(),
		SharedWaits:   m.sharedWaits.Load(),
		Computes:      m.misses.Load(),
		Stores:        m.stores.Load(),
		Evictions:     m.evictions.Load(),
		Invalidations: m.invalidations.Load(),
		Drops:         m.drops.Load(),
	}
}

// Held returns the number of entries held and the bytes they hold: each
// entry's size and the memo's overhead for it.
func (m *memo[K, V]) Held() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{Entries: len(m.items), Bytes: m.bytes}
}

// invalidate removes one key. Invalidations counts only lookups that
// actually removed an entry — invalidating an absent key is a no-op, not a
// removal (the counter-drift fix the CacheCounters invariants rely on). A
// leader in flight for the key may store its value afterwards.
func (m *memo[K, V]) invalidate(key K) {
	m.mu.Lock()
	el, removed := m.items[key]
	if removed {
		m.removeLocked(el)
	}
	m.mu.Unlock()
	if removed {
		m.invalidations.Add(1)
	}
}

// deleteFunc removes every entry whose key satisfies del, each counted as a
// drop; del runs under the memo's lock. A leader in flight may store its
// value afterwards; the warehouse sweeps a dropped run's closures and
// mappings under its write lock, which no leader holds, so none of them
// can.
func (m *memo[K, V]) deleteFunc(del func(K) bool) {
	m.mu.Lock()
	for key, el := range m.items {
		if del(key) {
			m.removeLocked(el)
			m.drops.Add(1)
		}
	}
	m.mu.Unlock()
}

// reset drops every entry and zeroes the counters, so the post-reset state
// is indistinguishable from a fresh memo. A leader in flight across a reset
// may still store its (correct) value, counted against the zeroed counters,
// so reset belongs at quiescent points.
func (m *memo[K, V]) reset() {
	m.mu.Lock()
	m.items = make(map[K]*list.Element)
	m.order.Init()
	m.bytes = 0
	m.mu.Unlock()
	m.hits.Store(0)
	m.misses.Store(0)
	m.sharedWaits.Store(0)
	m.stores.Store(0)
	m.evictions.Store(0)
	m.invalidations.Store(0)
	m.drops.Store(0)
}
