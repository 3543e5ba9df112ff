// Package obs is the observability layer of the warehouse: a small,
// dependency-free metrics registry holding atomic counters, gauges, and
// power-of-two-bucket latency histograms. The paper's headline result is a
// latency claim — deep provenance in ~13 ms once the
// compute-UAdmin-then-project strategy has warmed its temporary-table
// cache — and this package is how the reproduction observes where query
// time actually goes (cache hit vs. closure compute vs. projection)
// instead of asserting it.
//
// Design constraints, in order:
//
//   - Near-zero cost when detached. Every instrument method is safe on a
//     nil receiver and does nothing, so instrumented code holds plain
//     (possibly nil) *Counter/*Histogram fields and never branches on a
//     registry. Callers that need wall-clock readings additionally gate
//     their time.Now calls on "is anything attached".
//   - Race-free under concurrent recording. All state is sync/atomic;
//     recording never takes a lock. The registry's own map is guarded by a
//     mutex, but hot paths resolve their instruments once at attach time
//     and never touch the map again.
//   - Legible export. Snapshot renders everything as plain maps; the
//     registry also registers with expvar so any HTTP embedder gets
//     /debug/vars for free.
package obs

import (
	"expvar"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one. Safe (and a no-op) on a nil receiver.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. Safe (and a no-op) on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (zero on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (pool sizes, bytes resident).
type Gauge struct{ v atomic.Int64 }

// Set stores v. Safe (and a no-op) on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta. Safe (and a no-op) on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (zero on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of power-of-two buckets. Bucket i holds the
// values whose bit length is i — bucket 0 holds exactly 0, bucket i>0
// holds [2^(i-1), 2^i - 1] — so any non-negative int64 lands in a bucket
// with one bits.Len64 call and no search. The last bucket absorbs
// everything with bit length >= histBuckets-1.
const histBuckets = 64

// Histogram is a lock-free latency histogram with power-of-two buckets.
// Observations are typically nanoseconds; quantiles are reported as the
// upper bound of the bucket containing the quantile, i.e. with factor-of-2
// resolution — plenty to tell a cache hit (µs) from a closure compute (ms),
// which is what the per-stage query breakdown needs.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// bucketOf maps a value to its bucket index. Negative values (clock skew)
// clamp to bucket 0 rather than corrupting the distribution.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// BucketBound returns the inclusive upper bound of bucket i: 0 for bucket
// 0, 2^i - 1 otherwise.
func BucketBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return int64(^uint64(0) >> 1) // math.MaxInt64
	}
	return int64(1)<<i - 1
}

// Observe records one value. Safe (and a no-op) on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.counts[bucketOf(v)].Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Bucket is one non-empty histogram bucket in a snapshot.
type Bucket struct {
	// UpperBound is the largest value the bucket holds (inclusive).
	UpperBound int64 `json:"le"`
	// Count is the number of observations in the bucket.
	Count int64 `json:"n"`
	// Cum is the cumulative count of observations <= UpperBound — exactly
	// the value a Prometheus `_bucket{le="..."}` series reports, so the
	// text exposition renders straight off the snapshot.
	Cum int64 `json:"cum"`
}

// HistogramSnapshot is a point-in-time reading of a histogram.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Max   int64 `json:"max"`
	// P50 and P99 are the upper bounds of the buckets containing the
	// quantiles (factor-of-2 resolution).
	P50     int64    `json:"p50"`
	P99     int64    `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot reads the histogram. The reading is not one instantaneous cut
// under concurrent recording — each bucket is exact, but the set may span
// a few in-flight observations; at any quiescent point it is exact.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	var counts [histBuckets]int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		s.Count += counts[i]
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	var cum int64
	for i, n := range counts {
		cum += n
		if n > 0 {
			s.Buckets = append(s.Buckets, Bucket{UpperBound: BucketBound(i), Count: n, Cum: cum})
		}
	}
	s.P50 = quantile(&counts, s.Count, 50)
	s.P99 = quantile(&counts, s.Count, 99)
	return s
}

// quantile returns the upper bound of the bucket holding the pct-th
// percentile observation (rank = ceil(pct/100 * count)).
func quantile(counts *[histBuckets]int64, total, pct int64) int64 {
	if total == 0 {
		return 0
	}
	rank := (pct*total + 99) / 100
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range counts {
		cum += n
		if cum >= rank {
			return BucketBound(i)
		}
	}
	return BucketBound(histBuckets - 1)
}

// Registry is a named collection of instruments. The zero value is not
// usable; call NewRegistry. A nil *Registry is a valid "detached" registry:
// every lookup returns a nil instrument whose methods no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	infos    map[string]map[string]string
	funcs    map[string]func() int64 // counters read at snapshot time

	// hookMu guards hooks separately from mu: hooks run BEFORE Snapshot
	// takes mu, so a hook may freely Set gauges it resolved at attach time
	// (or even create instruments) without deadlocking.
	hookMu sync.Mutex
	hooks  []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		infos:    make(map[string]map[string]string),
		funcs:    make(map[string]func() int64),
	}
}

// OnSnapshot registers fn to run at the start of every Snapshot call,
// before the registry is read — the seam lazy instrumentation hangs off
// (AttachRuntime samples the Go runtime here, so gauges are current at
// every scrape but cost nothing between scrapes). fn may record to any
// instrument; it runs outside the registry lock. No-op on a nil registry.
func (r *Registry) OnSnapshot(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.hookMu.Lock()
	r.hooks = append(r.hooks, fn)
	r.hookMu.Unlock()
}

// Info records a constant labeled series (build info, version stamps):
// the snapshot carries the label set verbatim and the Prometheus
// exposition renders it as a gauge with value 1, the conventional
// `*_info{...} 1` shape. Setting the same name twice replaces the label
// set. No-op on a nil registry.
func (r *Registry) Info(name string, labels map[string]string) {
	if r == nil {
		return
	}
	cp := make(map[string]string, len(labels))
	for k, v := range labels {
		cp[k] = v
	}
	r.mu.Lock()
	r.infos[name] = cp
	r.mu.Unlock()
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a no-op instrument) on a nil registry. The returned pointer is stable:
// resolve it once at attach time and record lock-free forever after.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CounterFunc registers a counter whose value is fn(), read at every
// Snapshot — for a component that already keeps its own atomic count, so
// the count is recorded once. fn runs under the registry lock and must not
// call back into the registry. Registering a name again replaces its
// func; a func shadows a Counter of the same name. No-op on a nil registry.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// Gauge returns the named gauge, creating it on first use (nil registry →
// nil instrument).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use (nil
// registry → nil instrument).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time export of a whole registry, shaped for JSON.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Infos      map[string]map[string]string `json:"infos,omitempty"`
}

// Snapshot reads every instrument, after running any OnSnapshot hooks.
// Under concurrent recording each value is individually exact; the set is
// not one instantaneous cut. A nil registry snapshots to the zero
// Snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.hookMu.Lock()
	hooks := make([]func(), len(r.hooks))
	copy(hooks, r.hooks)
	r.hookMu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Counters = make(map[string]int64, len(r.counters)+len(r.funcs))
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, fn := range r.funcs {
		s.Counters[name] = fn()
	}
	s.Gauges = make(map[string]int64, len(r.gauges))
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	if len(r.infos) > 0 {
		s.Infos = make(map[string]map[string]string, len(r.infos))
		for name, labels := range r.infos {
			cp := make(map[string]string, len(labels))
			for k, v := range labels {
				cp[k] = v
			}
			s.Infos[name] = cp
		}
	}
	return s
}

// publishMu serializes Publish calls: expvar.Publish panics on duplicate
// names, so the existence check and the publish must be atomic.
var publishMu sync.Mutex

// Publish registers the registry with the process-global expvar table
// under the given name, so any HTTP embedder that serves
// expvar.Handler() (or the default /debug/vars) exports a live Snapshot
// for free. Publishing a name twice is an error (expvar names are
// process-global and permanent); a nil registry publishes nothing.
func (r *Registry) Publish(name string) error {
	if r == nil {
		return nil
	}
	publishMu.Lock()
	defer publishMu.Unlock()
	if expvar.Get(name) != nil {
		return fmt.Errorf("obs: expvar name %q already published", name)
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
	return nil
}
