package warehouse

import (
	"context"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/run"
)

// This file implements the warehouse's recursive query machinery. Oracle's
// CONNECT BY starts from a set of rows (START WITH) and repeatedly joins
// each frontier row to its parents (CONNECT BY PRIOR); ConnectBy is the
// same fixpoint over an arbitrary parent function, and a Closure is that
// fixpoint over the bipartite immediate-provenance relation
//
//	data object d  ->  the step that produced d
//	step s         ->  the data objects s read
//
// whose fixpoint is exactly the paper's deep provenance at the UAdmin
// level. Deep provenance under any coarser user view is obtained by
// *projecting* this closure (see the provenance package) — the strategy the
// paper's evaluation found fastest: "first compute UAdmin and then remove
// information hidden within composite steps of the given user view".
//
// Closures are computed over the run's interned integer domain (index.go).
// ConnectBy is the generic string-keyed operator; the direct per-view
// strategy (provenance.DeepProvenanceDirect, ablation A2) recurses with it.

// ConnectBy computes the transitive closure of parents over start,
// returning every reached key exactly once in BFS order (start keys first).
func ConnectBy(start []string, parents func(string) []string) []string {
	seen := make(map[string]bool, len(start))
	var order []string
	for _, s := range start {
		if !seen[s] {
			seen[s] = true
			order = append(order, s)
		}
	}
	for i := 0; i < len(order); i++ {
		for _, p := range parents(order[i]) {
			if !seen[p] {
				seen[p] = true
				order = append(order, p)
			}
		}
	}
	return order
}

// Closure is the result of a deep-provenance (or deep-derivation) query at
// the UAdmin level: every step and every data object transitively involved,
// as bitsets over the interned ids of the run index it was computed from.
// A closure is immutable after construction, so the cache hands the same
// instance to every caller.
type Closure struct {
	// Root is the data object the query started from.
	Root string

	ix       *run.Index
	stepBits bitset.Set
	dataBits bitset.Set
}

// Bits exposes the representation: the run index the interned ids refer to
// and the step/data member sets. The sets are shared and read-only.
func (c *Closure) Bits() (ix *run.Index, steps, data bitset.Set) {
	return c.ix, c.stepBits, c.dataBits
}

// HasStep reports whether a step id is in the closure.
func (c *Closure) HasStep(id string) bool {
	s, ok := c.ix.StepID(id)
	return ok && c.stepBits.Has(s)
}

// HasData reports whether a data id is in the closure.
func (c *Closure) HasData(id string) bool {
	d, ok := c.ix.DataID(id)
	return ok && c.dataBits.Has(d)
}

// NumSteps returns the number of steps in the closure.
func (c *Closure) NumSteps() int { return c.stepBits.Count() }

// NumData returns the number of data objects in the closure.
func (c *Closure) NumData() int { return c.dataBits.Count() }

// Size returns |Steps| + |Data|.
func (c *Closure) Size() int { return c.NumSteps() + c.NumData() }

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
	c, _, err := w.DeepProvenanceObservedCtx(context.Background(), r, d, false)
	return c, err
}

// DeepProvenanceObservedCtx is DeepProvenance over a run the caller has
// already resolved (Warehouse.Run), plus an Observation telling the caller
// how the lookup was served (hit, miss, shared-wait) and — when timed is
// true or a metrics registry is attached — how long a miss's closure
// compute took. The provenance engine uses it to split its query latency
// histograms by outcome and to fill per-query traces. When the context
// carries a trace span (obs.StartSpan), the cache records "closure.compute"
// and "closure.shared-wait" child spans, giving a traced request per-stage
// causality down to the singleflight.
//
// The cache is keyed on the run instance, so the closure is always over
// r's own index. A closure of a run the warehouse no longer serves (dropped
// since the caller resolved it) is computed and returned but not cached.
func (w *Warehouse) DeepProvenanceObservedCtx(ctx context.Context, r *run.Run, d string, timed bool) (*Closure, Observation, error) {
	return w.cache.getOrCompute(ctx, cacheKey{r, d}, timed, func(keep func(*Closure)) (*Closure, error) {
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

// ClosureStrategy, StrategyAuto and DeepProvenanceStrategyCtx are what
// rung 1 of benchmark/ladder.go compiles against, left from when a closure
// could be computed two ways. Only a [benchmark] PR may edit that module:
// the one that re-points rung 1 at DeepProvenanceObservedCtx deletes these.
type ClosureStrategy uint8

// StrategyAuto is the only ClosureStrategy.
const StrategyAuto ClosureStrategy = 0

// DeepProvenanceStrategyCtx resolves the run and is DeepProvenanceObservedCtx.
func (w *Warehouse) DeepProvenanceStrategyCtx(ctx context.Context, runID, d string, timed bool, _ ClosureStrategy) (*Closure, Observation, error) {
	r, err := w.Run(runID)
	if err != nil {
		return nil, Observation{}, err
	}
	return w.DeepProvenanceObservedCtx(ctx, r, d, timed)
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
