package run

import (
	"fmt"
	"math"

	"repro/internal/bitset"
)

// Labels is an optional reachability label index over a run's compact
// Index, after Bao & Davidson's fine-grained dependency labeling for
// workflow views: instead of answering "does u reach v?" with a traversal,
// the run's step dependency DAG is decomposed into chains (vertex-disjoint
// paths found greedily in topological order — Jagadish's path cover),
// every step gets a (chain, position) coordinate, and each step stores two
// k-entry interval rows, one per chain:
//
//	anc[s][c]  = the largest position on chain c among the ancestors of s
//	             (including s itself), or -1 when no chain-c step reaches s
//	desc[s][c] = the smallest position on chain c among the descendants of
//	             s (including s itself), or "none"
//
// Because a chain is a path in the DAG, the chain-c ancestors of s are
// exactly the prefix of chain c up to anc[s][c], and its chain-c
// descendants are exactly the suffix from desc[s][c] — so step-to-step
// reach is one array read and one comparison, and a whole deep-provenance
// closure is k prefix scans over flat arrays, no traversal and no visited
// set.
//
// Only steps are labeled. The labels cover the induced step graph — an
// edge s → t whenever some output of s is an input of t — not the
// bipartite step/data DAG. Every data object has at most one producer, so
// data reachability is a single hop from step reachability: the deep
// provenance of d is the ancestors-or-self of its producer plus their
// inputs, and its deep derivation is the descendants-or-self of its
// consumers plus their outputs. Labeling data nodes too would grow the
// chain count with data fan-out (each extra output of a step starts a
// fresh chain), which is exactly what sinks wide generated runs; the step
// graph keeps k at the step DAG's width. Reach still accepts combined ids
// (step s is node s, data d is node NumSteps()+d) and resolves data
// operands through their producer or consumers.
//
// Labels cost O(ns·k) int32s for ns steps and k chains. Builds whose
// decomposition would exceed maxLabelChains chains or maxLabelBytes of
// label memory return nil, and the warehouse falls back to the bitset BFS
// for that run — the fallback contract DESIGN.md §12 spells out.
type Labels struct {
	ix *Index

	numSteps int32 // combined-id split: ids < numSteps are steps
	n        int32 // combined node count (steps + data)
	k        int32 // number of chains

	chainOf   []int32 // step -> its chain
	posOf     []int32 // step -> position on its chain
	chainOff  []int32 // chain -> offset into chainNode (len k+1)
	chainNode []int32 // chain members in position order, step ids

	anc  []int32 // ns×k row-major ancestor intervals, ancNone = none
	desc []int32 // ns×k row-major descendant intervals, descNone = none
}

const (
	ancNone  = int32(-1)
	descNone = int32(math.MaxInt32)

	// maxLabelChains and maxLabelBytes bound the label footprint. Wide
	// step graphs (thousands of parallel branches ⇒ many chains) would pay
	// O(ns·k) memory for little win; past either bound BuildLabels
	// declines and the warehouse counts a fallback instead.
	maxLabelChains = 4096
	maxLabelBytes  = 256 << 20
)

// BuildLabels computes the reachability label index for this run index, or
// returns nil when the step graph's chain decomposition exceeds the label
// budget (the caller must then keep using the BFS path). The build is a
// chain decomposition along the index's topological order plus two linear
// label-merge sweeps, done once at load time.
func (ix *Index) BuildLabels() *Labels {
	ns := int32(ix.NumSteps())
	n := ns + int32(ix.NumData())
	l := &Labels{ix: ix, numSteps: ns, n: n}

	// Induced step graph, deduplicated: steps connected by several data
	// objects contribute one edge. mark[t] remembers the last source step
	// that recorded an edge into t.
	preds := make([][]int32, ns)
	succs := make([][]int32, ns)
	mark := make([]int32, ns)
	for i := range mark {
		mark[i] = -1
	}
	for s := int32(0); s < ns; s++ {
		for _, d := range ix.OutputsOf(s) {
			for _, t := range ix.ConsumersOf(d) {
				if mark[t] == s {
					continue
				}
				mark[t] = s
				succs[s] = append(succs[s], t)
				preds[t] = append(preds[t], s)
			}
		}
	}

	// Greedy chain assignment along the index's topological order: a step
	// extends the chain of the first predecessor that is still its chain's
	// tail (so every chain is a path and positions increase along edges),
	// otherwise it starts a new chain. The order is a function of the index,
	// and with it the decomposition.
	topo := ix.TopoOrder()
	if int32(len(topo)) != ns {
		return nil // cyclic index; Validate rejects such runs upstream
	}
	l.chainOf = make([]int32, ns)
	l.posOf = make([]int32, ns)
	var tails []int32 // chain -> current tail step
	for _, u := range topo {
		extended := false
		for _, p := range preds[u] {
			if c := l.chainOf[p]; tails[c] == p {
				l.chainOf[u] = c
				l.posOf[u] = l.posOf[p] + 1
				tails[c] = u
				extended = true
				break
			}
		}
		if !extended {
			l.chainOf[u] = int32(len(tails))
			l.posOf[u] = 0
			tails = append(tails, u)
		}
	}
	l.k = int32(len(tails))
	if l.k > maxLabelChains || 8*int64(ns)*int64(l.k) > maxLabelBytes {
		return nil
	}

	// Chain CSR: members of each chain in position order.
	k := int(l.k)
	l.chainOff = make([]int32, k+1)
	for s := int32(0); s < ns; s++ {
		l.chainOff[l.chainOf[s]+1]++
	}
	for c := 0; c < k; c++ {
		l.chainOff[c+1] += l.chainOff[c]
	}
	l.chainNode = make([]int32, ns)
	for s := int32(0); s < ns; s++ {
		l.chainNode[l.chainOff[l.chainOf[s]]+l.posOf[s]] = s
	}

	// Ancestor labels: sweep in topological order, merging each
	// predecessor's row element-wise (max), then stamp the step's own
	// coordinate — its chain ancestors all sit at smaller positions, so
	// the stamp is the row maximum for its own chain.
	l.anc = make([]int32, int(ns)*k)
	for i := range l.anc {
		l.anc[i] = ancNone
	}
	for _, v := range topo {
		row := l.anc[int(v)*k : int(v)*k+k]
		for _, p := range preds[v] {
			prow := l.anc[int(p)*k : int(p)*k+k]
			for c, m := range prow {
				if m > row[c] {
					row[c] = m
				}
			}
		}
		row[l.chainOf[v]] = l.posOf[v]
	}

	// Descendant labels: the mirror sweep in reverse topological order
	// with element-wise min.
	l.desc = make([]int32, int(ns)*k)
	for i := range l.desc {
		l.desc[i] = descNone
	}
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		row := l.desc[int(v)*k : int(v)*k+k]
		for _, t := range succs[v] {
			trow := l.desc[int(t)*k : int(t)*k+k]
			for c, m := range trow {
				if m < row[c] {
					row[c] = m
				}
			}
		}
		row[l.chainOf[v]] = l.posOf[v]
	}
	return l
}

// Index returns the run index these labels were built over. The warehouse
// compares it by pointer identity to the run's current index before
// consulting the labels — a stale label set is never used.
func (l *Labels) Index() *Index { return l.ix }

// NumChains returns the number of chains in the decomposition.
func (l *Labels) NumChains() int { return int(l.k) }

// NumNodes returns the combined node count (steps + data).
func (l *Labels) NumNodes() int { return int(l.n) }

// StepNode returns the combined node id of an interned step id.
func (l *Labels) StepNode(s int32) int32 { return s }

// DataNode returns the combined node id of an interned data id.
func (l *Labels) DataNode(d int32) int32 { return l.numSteps + d }

// reachStep reports whether step s reaches step t in the step graph,
// reflexively: s is an ancestor-or-self of t iff t's ancestor bound on s's
// chain is at or past s's position.
func (l *Labels) reachStep(s, t int32) bool {
	return l.anc[int(t)*int(l.k)+int(l.chainOf[s])] >= l.posOf[s]
}

// Reach reports whether combined node u reaches combined node v in the
// bipartite provenance DAG — u is v or there is a directed path u → v.
// Reach is reflexive by construction (deep provenance includes its root);
// callers comparing against a path-length-≥1 closure must special-case
// u == v. Data operands are resolved through the step labels — a data
// target through its single producer, a data source through its consumers
// — so a data-to-* check costs one comparison per consumer. That keeps
// Reach off the closure hot path (ProvenanceInto and DerivationInto are
// what the warehouse serves queries with) while making the full bipartite
// relation checkable one pair at a time.
func (l *Labels) Reach(u, v int32) bool {
	if u == v {
		return true
	}
	ns := l.numSteps
	if v >= ns {
		// Data target: anything else that reaches it reaches (or is) its
		// single producer.
		p := l.ix.Producer(v - ns)
		if p < 0 {
			return false // external data has no proper ancestors
		}
		v = p
	}
	if u < ns {
		return l.reachStep(u, v)
	}
	// Data source: every path out of it starts at one of its consumers.
	for _, t := range l.ix.ConsumersOf(u - ns) {
		if l.reachStep(t, v) {
			return true
		}
	}
	return false
}

// ProvenanceInto adds the deep provenance of data object d — every step
// and data object that transitively contributed to it, d included — to the
// given bitsets. The steps are the ancestors-or-self of d's producer (one
// prefix scan per chain with any such ancestor); the data are d plus the
// inputs of those steps, exactly the set the warehouse's backward BFS
// marks.
func (l *Labels) ProvenanceInto(d int32, stepBits, dataBits bitset.Set) {
	dataBits.Add(d)
	p := l.ix.Producer(d)
	if p < 0 {
		return // external data: no producing steps, no further ancestry
	}
	k := int(l.k)
	row := l.anc[int(p)*k : int(p)*k+k]
	for c, m := range row {
		if m == ancNone {
			continue
		}
		off := l.chainOff[c]
		for _, s := range l.chainNode[off : off+m+1] {
			stepBits.Add(s)
			for _, in := range l.ix.InputsOf(s) {
				dataBits.Add(in)
			}
		}
	}
}

// DerivationInto adds the deep derivation of data object d — every step
// and data object transitively derived from it, d included — to the given
// bitsets. The steps are the descendants-or-self of d's consumers: the
// per-chain bound is the minimum over the consumers' desc rows (merged in
// a per-call buffer, so concurrent readers share nothing), each chain then
// contributing one suffix scan; the data are d plus the outputs of those
// steps.
func (l *Labels) DerivationInto(d int32, stepBits, dataBits bitset.Set) {
	dataBits.Add(d)
	cons := l.ix.ConsumersOf(d)
	if len(cons) == 0 {
		return
	}
	k := int(l.k)
	min := make([]int32, k)
	for c := range min {
		min[c] = descNone
	}
	for _, t := range cons {
		row := l.desc[int(t)*k : int(t)*k+k]
		for c, m := range row {
			if m < min[c] {
				min[c] = m
			}
		}
	}
	for c, m := range min {
		if m == descNone {
			continue
		}
		for _, s := range l.chainNode[l.chainOff[c]+m : l.chainOff[c+1]] {
			stepBits.Add(s)
			for _, out := range l.ix.OutputsOf(s) {
				dataBits.Add(out)
			}
		}
	}
}

// LabelStats describes a label index's shape and footprint.
type LabelStats struct {
	// Nodes is the combined node count (steps + data) Reach answers for,
	// Chains the size of the step graph's path cover (k). Only steps carry
	// interval rows: ns×Chains int32s per matrix.
	Nodes, Chains int
	// LabelBytes is the total label memory: both interval matrices plus the
	// chain coordinate and CSR arrays, at 4 bytes per int32.
	LabelBytes int
}

// Stats returns the label index's footprint.
func (l *Labels) Stats() LabelStats {
	ints := len(l.anc) + len(l.desc) +
		len(l.chainOf) + len(l.posOf) + len(l.chainOff) + len(l.chainNode)
	return LabelStats{Nodes: int(l.n), Chains: int(l.k), LabelBytes: 4 * ints}
}

// String renders the footprint on one line.
func (s LabelStats) String() string {
	return fmt.Sprintf("nodes=%d chains=%d labels=%dB", s.Nodes, s.Chains, s.LabelBytes)
}
