package warehouse

import (
	"context"
	"fmt"
	"unsafe"

	"repro/internal/bitset"
	"repro/internal/obs"
	"repro/internal/run"
)

// This file implements the warehouse's recursive query machinery, the
// analogue of Oracle's CONNECT BY. A Closure is the fixpoint over the
// bipartite immediate-provenance relation
//
//	data object d  ->  the step that produced d
//	step s         ->  the data objects s read
//
// which is exactly the paper's deep provenance at the UAdmin level. Deep
// provenance under any coarser user view is obtained by *projecting* this
// closure (see the provenance package) — the strategy the paper's
// evaluation found fastest: "first compute UAdmin and then remove
// information hidden within composite steps of the given user view".
//
// Closures are computed over the run's interned integer domain (index.go).
// The generic string-keyed operator, ConnectBy, is the test oracle in
// index_test.go.

// Closure is the result of a deep-provenance (or deep-derivation) query at
// the UAdmin level: every step and every data object transitively involved.
// It holds its steps, as a bitset over the interned ids of the run index it
// was computed from, and derives its data from them: backward, a data object
// is in the closure iff it is the root or a closure step reads it; forward,
// iff it is the root or a closure step wrote it. A closure is immutable after
// construction, so the cache hands the same instance to every caller.
type Closure struct {
	// Root is the data object the query started from.
	Root string

	ix       *run.Index
	root     int32 // Root's interned id
	forward  bool  // a derivation closure; otherwise a provenance one
	stepBits bitset.Set
}

// Steps exposes the representation: the run index the interned ids refer to
// and the step set. The set is shared and read-only.
func (c *Closure) Steps() (*run.Index, bitset.Set) { return c.ix, c.stepBits }

// Bits is Steps plus the data set, spelled out into a new bitset.
func (c *Closure) Bits() (ix *run.Index, steps, data bitset.Set) {
	data = bitset.New(c.ix.NumData())
	data.Add(c.root)
	c.stepBits.Each(func(s int32) {
		rows := c.ix.InputsOf(s)
		if c.forward {
			rows = c.ix.OutputsOf(s)
		}
		for _, d := range rows {
			data.Add(d)
		}
	})
	return c.ix, c.stepBits, data
}

// HasDataID reports whether an interned data id is in the closure: the
// root, or read (backward) or written (forward) by a closure step.
func (c *Closure) HasDataID(d int32) bool {
	if d == c.root {
		return true
	}
	if c.forward {
		p := c.ix.Producer(d)
		return p >= 0 && c.stepBits.Has(p)
	}
	for _, s := range c.ix.ConsumersOf(d) {
		if c.stepBits.Has(s) {
			return true
		}
	}
	return false
}

// HasStep reports whether a step id is in the closure.
func (c *Closure) HasStep(id string) bool {
	s, ok := c.ix.StepID(id)
	return ok && c.stepBits.Has(s)
}

// HasData reports whether a data id is in the closure.
func (c *Closure) HasData(id string) bool {
	d, ok := c.ix.DataID(id)
	return ok && c.HasDataID(d)
}

// NumSteps returns the number of steps in the closure.
func (c *Closure) NumSteps() int { return c.stepBits.Count() }

// NumData returns the number of data objects in the closure, counted
// through HasDataID so that no data set is built.
func (c *Closure) NumData() int {
	n := 0
	for d := int32(0); d < int32(c.ix.NumData()); d++ {
		if c.HasDataID(d) {
			n++
		}
	}
	return n
}

// Size returns |Steps| + |Data|.
func (c *Closure) Size() int { return c.NumSteps() + c.NumData() }

// Bytes is what the closure holds: its header and its step set. The index
// and the root's name belong to the run and the cache key.
func (c *Closure) Bytes() int { return int(unsafe.Sizeof(*c)) + 8*len(c.stepBits) }

// DeepProvenance computes the UAdmin deep provenance of data object d in
// the given run: all steps and data objects transitively used to produce
// it. Results are cached per (run, data) — the paper's temporary table —
// so that switching user views re-reads the closure instead of recomputing
// it. Concurrent misses on the same (run, data) key are coalesced by the
// cache's singleflight: the closure is computed once and shared, so a
// thundering herd of identical cold queries costs one traversal.
func (w *Warehouse) DeepProvenance(runID, d string) (*Closure, error) {
	r, err := w.Run(runID)
	if err != nil {
		return nil, err
	}
	c, _, err := w.DeepProvenanceObservedCtx(context.Background(), r, d)
	return c, err
}

// DeepProvenanceObservedCtx is DeepProvenance over a run the caller has
// already resolved (Warehouse.Run), plus the Outcome telling the caller how
// the lookup was served (hit, miss, shared-wait); an attached metrics
// registry times a miss's closure compute (cache.compute_ns). The
// provenance engine uses it to split its query latency histograms by
// outcome and to fill per-query traces. When the context
// carries a trace span (obs.StartSpan), the cache records "closure.compute"
// and "closure.shared-wait" child spans, giving a traced request per-stage
// causality down to the singleflight.
//
// The cache is keyed on the run instance, so the closure is always over
// r's own index. A closure of a run the warehouse no longer serves (dropped
// since the caller resolved it) is computed and returned but not cached.
func (w *Warehouse) DeepProvenanceObservedCtx(ctx context.Context, r *run.Run, d string) (*Closure, Outcome, error) {
	return w.cache.Get(obs.SpanFromContext(ctx), cacheKey{r, d}, func(keep func(*Closure)) (*Closure, error) {
		w.mu.RLock()
		defer w.mu.RUnlock()
		if w.closed {
			return nil, ErrClosed
		}
		if !r.HasData(d) {
			return nil, fmt.Errorf("%w: %q in run %q", ErrUnknownData, d, r.ID())
		}
		c := indexedProvenanceClosure(r.Index(), d)
		if w.servedLocked(r.ID()) == r {
			keep(c)
		}
		return c, nil
	})
}

// cacheKey names a cached closure: the run instance and the data id. A run
// is immutable, so a closure computed from it is never stale, and a run
// re-ingested under the same id is a different key.
type cacheKey struct {
	r    *run.Run
	data string
}

// closureBytes is what one cached closure holds beyond the memo's own
// overhead: the closure (Closure.Bytes) and its key's data id, which the
// closure's Root shares.
func closureBytes(k cacheKey, c *Closure) int { return c.Bytes() + len(k.data) }

// ClosureStrategy, StrategyAuto and DeepProvenanceStrategyCtx are what
// rung 1 of benchmark/ladder.go compiles against, left from when a closure
// could be computed two ways. Only a [benchmark] PR may edit that module:
// the one that re-points rung 1 at DeepProvenanceObservedCtx deletes these.
type ClosureStrategy uint8

// StrategyAuto is the only ClosureStrategy.
const StrategyAuto ClosureStrategy = 0

// DeepProvenanceStrategyCtx resolves the run and is DeepProvenanceObservedCtx;
// its bool is ignored.
func (w *Warehouse) DeepProvenanceStrategyCtx(ctx context.Context, runID, d string, _ bool, _ ClosureStrategy) (*Closure, Outcome, error) {
	r, err := w.Run(runID)
	if err != nil {
		return nil, 0, err
	}
	return w.DeepProvenanceObservedCtx(ctx, r, d)
}

// DeepDerivation is the inverse canned query the prototype section
// mentions ("Return the data objects which have a given data object in
// their data provenance"): all steps and data objects transitively derived
// from d. Derivation closures are not cached (the canned query is rare).
func (w *Warehouse) DeepDerivation(runID, d string) (*Closure, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	rt, err := w.tablesLocked(runID)
	if err != nil {
		return nil, err
	}
	if !rt.run.HasData(d) {
		return nil, fmt.Errorf("%w: %q in run %q", ErrUnknownData, d, runID)
	}
	return indexedDerivationClosure(rt.run.Index(), d), nil
}

// ImmediateProvenance returns the producing step of d and that step's input
// data set — the paper's immediate provenance at the UAdmin level. For
// external data the step is "" and the inputs nil.
func (w *Warehouse) ImmediateProvenance(runID, d string) (string, []string, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	rt, err := w.tablesLocked(runID)
	if err != nil {
		return "", nil, err
	}
	ix := rt.run.Index()
	id, ok := ix.DataID(d)
	if !ok {
		return "", nil, fmt.Errorf("%w: %q in run %q", ErrUnknownData, d, runID)
	}
	p := ix.Producer(id)
	if p < 0 {
		return "", nil, nil
	}
	var inputs []string
	for _, in := range ix.InputsOf(p) {
		inputs = append(inputs, ix.DataName(in))
	}
	return ix.StepName(p), inputs, nil
}
