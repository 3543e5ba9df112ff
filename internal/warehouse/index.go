package warehouse

import (
	"repro/internal/bitset"
	"repro/internal/run"
)

// The closure computations. At load time the warehouse builds each run's
// interned CSR index (run.Index); the closures below are then integer BFS
// over flat int32 slices with bitset visited sets — no string hashing, no
// per-hop allocation — and their results are the bitset-backed Closures of
// connectby.go. This is the database trick behind the paper's
// compute-UAdmin-then-project strategy done natively: intern once, traverse
// dense ids, only re-materialize strings at the result boundary.

// indexedProvenanceClosure is the backward integer BFS: data → producing
// step → that step's inputs, to fixpoint. The worklist is a stack of
// interned data ids; steps are expanded at most once, guarded by the step
// bitset itself.
func indexedProvenanceClosure(ix *run.Index, d string) *Closure {
	root, _ := ix.DataID(d)
	stepBits := bitset.New(ix.NumSteps())
	dataBits := bitset.New(ix.NumData())
	dataBits.Add(root)
	stack := make([]int32, 0, 64)
	stack = append(stack, root)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		p := ix.Producer(cur)
		if p < 0 || stepBits.Has(p) {
			continue
		}
		stepBits.Add(p)
		for _, in := range ix.InputsOf(p) {
			if !dataBits.Has(in) {
				dataBits.Add(in)
				stack = append(stack, in)
			}
		}
	}
	return &Closure{Root: d, ix: ix, stepBits: stepBits, dataBits: dataBits}
}

// indexedDerivationClosure is the forward integer BFS: data → consuming
// steps → their outputs, to fixpoint.
func indexedDerivationClosure(ix *run.Index, d string) *Closure {
	root, _ := ix.DataID(d)
	stepBits := bitset.New(ix.NumSteps())
	dataBits := bitset.New(ix.NumData())
	dataBits.Add(root)
	stack := make([]int32, 0, 64)
	stack = append(stack, root)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range ix.ConsumersOf(cur) {
			if stepBits.Has(s) {
				continue
			}
			stepBits.Add(s)
			for _, out := range ix.OutputsOf(s) {
				if !dataBits.Has(out) {
					dataBits.Add(out)
					stack = append(stack, out)
				}
			}
		}
	}
	return &Closure{Root: d, ix: ix, stepBits: stepBits, dataBits: dataBits}
}

// RunIndex returns the compact index of a loaded run, or nil when the run
// is unknown or failed to materialize. It is the index every closure of the
// run carries.
func (w *Warehouse) RunIndex(runID string) *run.Index {
	w.mu.RLock()
	defer w.mu.RUnlock()
	rt, err := w.tablesLocked(runID)
	if err != nil {
		return nil
	}
	return rt.index
}

// IndexStats aggregates the per-run index footprints: how many ids were
// interned, what the flat CSR adjacency costs, and how many 64-bit words a
// closure bitset pair needs across all loaded runs. IndexedRuns counts the
// resident runs (unmaterialized v3 runs have no index in memory yet).
type IndexStats struct {
	IndexedRuns   int
	InternedSteps int
	InternedData  int
	CSRBytes      int
	ClosureWords  int
}

// indexStatsLocked aggregates index stats; callers hold w.mu.
func (w *Warehouse) indexStatsLocked() IndexStats {
	var st IndexStats
	for _, rt := range w.runs {
		if lz := rt.lazy; lz != nil && !lz.done.Load() {
			continue // unmaterialized v3 run: no index resident yet
		}
		s := rt.index.Stats()
		st.IndexedRuns++
		st.InternedSteps += s.Steps
		st.InternedData += s.Data
		st.CSRBytes += s.CSRBytes
		st.ClosureWords += s.ClosureWords
	}
	return st
}
