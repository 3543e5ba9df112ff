package warehouse

import (
	"repro/internal/bitset"
	"repro/internal/run"
)

// The closure computations. At load time the warehouse builds each run's
// interned CSR index (run.Index); the closures below are then integer
// traversals over flat int32 slices with bitset visited sets — no string
// hashing, no per-hop allocation — and their results are the bitset-backed
// Closures of connectby.go. This is the database trick behind the paper's
// compute-UAdmin-then-project strategy done natively: intern once, traverse
// dense ids, only re-materialize strings at the result boundary.
//
// Both worklists hold steps, not data. A run has several data objects per
// step and a data object has nothing to expand but its one producer (its
// few consumers), so a data worklist pushes and pops every object of the
// closure and outgrows any fixed buffer on each call; a step worklist stays
// as shallow as the step DAG's frontier. Neither marks data: a closure's
// data follow from its steps (Closure.HasDataID).

// indexedProvenanceClosure is the backward traversal: data → producing
// step → that step's inputs' producers, to fixpoint. A popped step pushes
// each input's producer the first time it is seen; the step bitset is the
// visited set.
func indexedProvenanceClosure(ix *run.Index, d string) *Closure {
	root, _ := ix.DataID(d)
	stepBits := bitset.New(ix.NumSteps())
	stack := make([]int32, 0, 64)
	if p := ix.Producer(root); p >= 0 {
		stepBits.Add(p)
		stack = append(stack, p)
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, in := range ix.InputsOf(s) {
			if p := ix.Producer(in); p >= 0 && !stepBits.Has(p) {
				stepBits.Add(p)
				stack = append(stack, p)
			}
		}
	}
	return &Closure{Root: d, ix: ix, root: root, stepBits: stepBits}
}

// indexedDerivationClosure is the forward traversal: data → consuming
// steps → their outputs' consumers, to fixpoint. A popped step pushes each
// output's unseen consumers.
func indexedDerivationClosure(ix *run.Index, d string) *Closure {
	root, _ := ix.DataID(d)
	stepBits := bitset.New(ix.NumSteps())
	stack := make([]int32, 0, 64)
	for _, s := range ix.ConsumersOf(root) {
		stepBits.Add(s)
		stack = append(stack, s)
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, out := range ix.OutputsOf(s) {
			for _, c := range ix.ConsumersOf(out) {
				if !stepBits.Has(c) {
					stepBits.Add(c)
					stack = append(stack, c)
				}
			}
		}
	}
	return &Closure{Root: d, ix: ix, root: root, forward: true, stepBits: stepBits}
}

// IndexStats aggregates the per-run index footprints: how many ids were
// interned, what the flat CSR adjacency costs (offsets, targets and the
// producer column, at 4 bytes per int32), how many 64-bit words one
// closure's step set needs, and what the JSON token tables built so far
// hold, across all loaded runs. IndexedRuns counts the resident runs
// (unmaterialized v3 runs have no index in memory yet).
type IndexStats struct {
	IndexedRuns   int
	InternedSteps int
	InternedData  int
	CSRBytes      int
	ClosureWords  int
	TokenBytes    int
}

// indexStatsLocked aggregates index stats; callers hold w.mu.
func (w *Warehouse) indexStatsLocked() IndexStats {
	var st IndexStats
	for _, rt := range w.runs {
		if lz := rt.lazy; lz != nil && !lz.done.Load() {
			continue // unmaterialized v3 run: no index resident yet
		}
		is := rt.run.Index().Stats()
		st.IndexedRuns++
		st.InternedSteps += is.Steps
		st.InternedData += is.Data
		st.CSRBytes += is.CSRBytes
		st.ClosureWords += is.ClosureWords
		st.TokenBytes += rt.run.Index().TokenBytes()
	}
	return st
}
