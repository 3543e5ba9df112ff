package warehouse

import (
	"repro/internal/bitset"
	"repro/internal/run"
)

// The label query path. On top of the compact run index (index.go) the
// warehouse can carry a reachability label index per run (run.Labels): a
// chain decomposition of the bipartite provenance DAG with per-chain
// interval labels, built once at load time, that turns a deep-provenance
// closure into k prefix scans over flat arrays — no traversal, no visited
// set. SetLabelIndex turns it on; queries fall back to the bitset BFS
// whenever labels are absent (label indexing off, the build declined a run
// wider than the label budget) or stale (the label set's index is no longer
// the run's index) — the fallback is counted, never silent.

// ClosureStrategy selects how an individual closure computation runs.
type ClosureStrategy uint8

const (
	// StrategyAuto follows the warehouse's SetLabelIndex toggle: labels
	// when the run has a fresh label index, bitset BFS otherwise.
	StrategyAuto ClosureStrategy = iota
	// StrategyLabels prefers the label index regardless of the toggle,
	// still falling back (and counting the fallback) when the run has no
	// usable labels.
	StrategyLabels
	// StrategyBFS forces the traversal path, ignoring any labels.
	StrategyBFS
)

// String returns the label used in traces and query responses.
func (s ClosureStrategy) String() string {
	switch s {
	case StrategyLabels:
		return "labels"
	case StrategyBFS:
		return "bfs"
	}
	return "auto"
}

// Strategy names reported in Observation.Strategy and query traces: which
// computation actually ran (as opposed to which was requested).
const (
	strategyLabels = "labels"
	strategyBFS    = "bfs"
)

// SetLabelIndex enables or disables the reachability label index. Enabling
// builds labels for every already-loaded indexed run (the builds run
// outside the catalog lock, so concurrent queries keep flowing — they use
// the BFS until the labels attach) and for every run loaded from now on.
// Disabling drops all label sets and routes StrategyAuto queries back to
// the BFS. Runs whose decomposition exceeds the label budget never get
// labels; queries against them count fallbacks instead.
func (w *Warehouse) SetLabelIndex(enabled bool) {
	if !enabled {
		w.mu.Lock()
		w.labelIndex = false
		for _, rt := range w.runs {
			if lz := rt.lazy; lz != nil {
				lz.buildLabels.Store(false)
			}
			rt.labels = nil
		}
		w.mu.Unlock()
		return
	}
	w.mu.Lock()
	w.labelIndex = true
	type pending struct {
		id string
		rt *runTables
		ix *run.Index
	}
	var todo []pending
	for id, rt := range w.runs {
		if lz := rt.lazy; lz != nil && !lz.done.Load() {
			// Not materialized yet (or failed): ask materialization to build
			// labels when it happens instead of forcing every run resident.
			lz.buildLabels.Store(true)
			continue
		}
		if rt.labels == nil {
			todo = append(todo, pending{id, rt, rt.index})
		}
	}
	w.mu.Unlock()

	for _, p := range todo {
		l := p.ix.BuildLabels()
		if l == nil {
			continue
		}
		w.mu.Lock()
		// Attach only if the run is still the one we labeled: a drop and
		// re-ingest between the snapshot and here swapped rt out of the
		// catalog (or swapped its index), and those labels must die with it.
		if cur, ok := w.runs[p.id]; ok && cur == p.rt && cur.index == p.ix && w.labelIndex {
			cur.labels = l
			w.observeLabelBuild()
		}
		w.mu.Unlock()
	}
}

// LabelIndexEnabled reports whether SetLabelIndex(true) is in effect.
func (w *Warehouse) LabelIndexEnabled() bool {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.labelIndex
}

// RunLabels returns a loaded run's label index, or nil when the run has
// none (labels off, build declined, or unknown run).
func (w *Warehouse) RunLabels(runID string) *run.Labels {
	w.mu.RLock()
	defer w.mu.RUnlock()
	rt, err := w.tablesLocked(runID)
	if err != nil {
		return nil
	}
	return rt.labels
}

// labelsFor resolves the label index to use for one closure computation
// under rt, or nil when the computation must take the BFS path. Callers
// hold w.mu (read); the pointer-identity check is the staleness fence at
// the data-structure level — even if a stale runTables were ever consulted,
// labels built over a different index are refused.
func (w *Warehouse) labelsFor(rt *runTables, strat ClosureStrategy) *run.Labels {
	if strat != StrategyLabels && (strat != StrategyAuto || !w.labelIndex) {
		return nil
	}
	// Label-requested from here on: the computation is served by labels
	// (the caller counts the hit) or counted as a fallback, never silent —
	// Hits + Fallbacks account for every label-requested computation.
	if rt.labels == nil || rt.labels.Index() != rt.index {
		w.observeLabelFallback()
		return nil
	}
	return rt.labels
}

// labelProvenanceClosure materializes the deep provenance of d from the
// label index: one prefix scan per chain instead of a BFS.
func labelProvenanceClosure(l *run.Labels, d string) *Closure {
	ix := l.Index()
	root, _ := ix.DataID(d)
	stepBits := bitset.New(ix.NumSteps())
	dataBits := bitset.New(ix.NumData())
	l.ProvenanceInto(root, stepBits, dataBits)
	return &Closure{Root: d, ix: ix, stepBits: stepBits, dataBits: dataBits}
}

// labelDerivationClosure materializes the deep derivation of d from the
// label index (suffix scans).
func labelDerivationClosure(l *run.Labels, d string) *Closure {
	ix := l.Index()
	root, _ := ix.DataID(d)
	stepBits := bitset.New(ix.NumSteps())
	dataBits := bitset.New(ix.NumData())
	l.DerivationInto(root, stepBits, dataBits)
	return &Closure{Root: d, ix: ix, stepBits: stepBits, dataBits: dataBits}
}

// LabelCounters snapshot the label lifecycle: Builds counts label indexes
// successfully built (load-time and SetLabelIndex backfills), Hits counts
// closure computations served by labels, and Fallbacks counts computations
// that wanted labels but took the BFS because the run had none (declined
// build, labels disabled between request and compute, or a stale label
// set). At any quiescent point Hits + Fallbacks equals the label-requested
// closure computations — every such query is accounted one way or the
// other, which the staleness regression test pins.
type LabelCounters struct {
	Builds    int64
	Hits      int64
	Fallbacks int64
}

// LabelCounters returns the current label lifecycle counters.
func (w *Warehouse) LabelCounters() LabelCounters {
	return LabelCounters{
		Builds:    w.labelBuilds.Load(),
		Hits:      w.labelHits.Load(),
		Fallbacks: w.labelFallbacks.Load(),
	}
}

// LabelsStats aggregates the per-run label footprints plus the lifecycle
// counters — the Labels section of Warehouse.Stats.
type LabelsStats struct {
	// Enabled mirrors the SetLabelIndex toggle.
	Enabled bool
	// LabeledRuns counts runs currently carrying a label index; Chains and
	// LabelBytes sum their decomposition sizes and label memory.
	LabeledRuns int
	Chains      int
	LabelBytes  int
	// Builds, Hits and Fallbacks are the LabelCounters.
	Builds, Hits, Fallbacks int64
}

// labelStatsLocked aggregates label stats; callers hold w.mu.
func (w *Warehouse) labelStatsLocked() LabelsStats {
	st := LabelsStats{
		Enabled:   w.labelIndex,
		Builds:    w.labelBuilds.Load(),
		Hits:      w.labelHits.Load(),
		Fallbacks: w.labelFallbacks.Load(),
	}
	for _, rt := range w.runs {
		if lz := rt.lazy; lz != nil && !lz.done.Load() {
			continue // unmaterialized v3 run: no labels resident yet
		}
		if rt.labels == nil {
			continue
		}
		s := rt.labels.Stats()
		st.LabeledRuns++
		st.Chains += s.Chains
		st.LabelBytes += s.LabelBytes
	}
	return st
}
