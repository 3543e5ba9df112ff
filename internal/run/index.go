package run

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/jsontok"
	"repro/internal/spec"
)

// Index is the compact, immutable representation of a run the warehouse
// queries against: every step and data id is interned to a dense int32 and
// the four adjacency relations the provenance traversals walk — data →
// producing step, step → input data, data → consuming steps, step → output
// data — are stored as CSR-style flat slices. A deep-provenance closure
// over this representation is an integer BFS plus two bit sets; the string
// world is only re-entered when a query result is materialized.
//
// Interned ids double as natural-order ranks: steps and data are interned
// in natural order (d2 before d10), so sorting a set of interned ids
// ascending *is* the paper's natural sort, with no digit re-parsing per
// comparison. It also makes the name tables their own dictionaries: a name
// resolves to its id by binary search under the natural order, so the index
// carries no name -> id maps.
//
// The index is the run: its tables are what ReconstructArena verified and
// adopted, from a Builder or a snapshot, and nothing changes them
// afterwards. Besides the adjacency they hold the names, as one arena string
// and offsets into it, and the input metadata. They hold no flow edges:
// EachFlow derives them from the rows for the few readers that ask (Flows,
// NumEdges, Stats, ConformsTo and the v3 snapshot writer).
type Index struct {
	r *Run
	t ArenaTables

	topoOnce  sync.Once
	topoOrder []int32 // see TopoOrder; shorter than NumSteps when cyclic

	tokOnce sync.Once
	tokens  Tokens      // see Tokens
	tokDone atomic.Bool // set once tokens is built
}

// validateStructure checks Validate's invariants on the interned
// representation: the step relation implied by the flows is acyclic and
// every step is forward-reachable from INPUT and backward-reachable from
// OUTPUT. This walk is equivalent to the execution-graph walk because every
// flow's data objects are produced by the flow's source, so "t consumes
// data produced by s" holds exactly when the graph has edge s -> t, and
// INPUT/OUTPUT — a pure source and a pure sink — can never be on a cycle.
func (ix *Index) validateStructure() error {
	n, id := ix.NumSteps(), ix.r.id
	order := ix.TopoOrder()
	if len(order) != n {
		return fmt.Errorf("run %q: %w", id, ErrCyclicRun)
	}

	// In topological order every predecessor of a step is settled before
	// the step, and in reverse every successor, so each reach is one sweep
	// over the relation the order was computed from. Forward reach starts
	// at the consumers of external data, backward reach at the producers of
	// final data.
	fwd, bwd := make([]bool, n), make([]bool, n)
	for d, p := range ix.t.Producer {
		if p < 0 {
			for _, t := range ix.ConsumersOf(int32(d)) {
				fwd[t] = true
			}
		}
	}
	for _, s := range order {
		if !fwd[s] {
			continue
		}
		for _, d := range ix.OutputsOf(s) {
			for _, t := range ix.ConsumersOf(d) {
				fwd[t] = true
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := order[i]
		for _, d := range ix.OutputsOf(s) {
			bwd[s] = bwd[s] || ix.IsFinal(d)
			for _, t := range ix.ConsumersOf(d) {
				bwd[s] = bwd[s] || bwd[t]
			}
		}
	}

	for s := 0; s < n; s++ {
		if !fwd[s] {
			return fmt.Errorf("run %q: step %q unreachable from INPUT: %w", id, ix.StepName(int32(s)), ErrDisconnected)
		}
		if !bwd[s] {
			return fmt.Errorf("run %q: step %q cannot reach OUTPUT: %w", id, ix.StepName(int32(s)), ErrDisconnected)
		}
	}
	return nil
}

// Run returns the run this index was built from.
func (ix *Index) Run() *Run { return ix.r }

// NumSteps returns the number of interned steps.
func (ix *Index) NumSteps() int { return len(ix.t.StepOff) - 1 }

// NumData returns the number of interned data objects.
func (ix *Index) NumData() int { return len(ix.t.DataOff) - 1 }

// StepID returns the interned id of a step name.
func (ix *Index) StepID(name string) (int32, bool) { return ix.t.searchNatural(ix.t.StepOff, name) }

// DataID returns the interned id of a data name.
func (ix *Index) DataID(name string) (int32, bool) { return ix.t.searchNatural(ix.t.DataOff, name) }

// searchNatural finds name in the table off indexes, which is strictly
// increasing under lessNatural (every index's name tables are: Build sorts
// them and ReconstructArena verifies it). The needle is split once per
// lookup.
func (t *ArenaTables) searchNatural(off []uint32, name string) (int32, bool) {
	key := natKeyOf(name)
	n := len(off) - 1
	i := sort.Search(n, func(i int) bool { return natKeyOf(t.name(off, int32(i))).compare(key) >= 0 })
	if i == n || t.name(off, int32(i)) != name {
		return 0, false
	}
	return int32(i), true
}

// StepName returns the step name of an interned id.
func (ix *Index) StepName(id int32) string { return ix.t.name(ix.t.StepOff, id) }

// StepModule returns the module an interned step instantiates.
func (ix *Index) StepModule(id int32) string { return ix.t.name(ix.t.ModuleOff, id) }

// nodeName is the inverse of Builder.node, step naming the step codes.
func nodeName(code int32, step func(int32) string) string {
	switch code {
	case NodeInput:
		return spec.Input
	case NodeOutput:
		return spec.Output
	}
	return step(code - NodeStep0)
}

// namesWhere returns the names in the table off indexes whose ids keep
// selects, in order.
func (t *ArenaTables) namesWhere(off []uint32, keep func(int32) bool) []string {
	var out []string
	for i := int32(0); i+1 < int32(len(off)); i++ {
		if keep(i) {
			out = append(out, t.name(off, i))
		}
	}
	return out
}

// names maps interned ids to their names in the table off indexes (nil for
// no ids).
func (t *ArenaTables) names(off []uint32, ids []int32) []string {
	if len(ids) == 0 {
		return nil
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = t.name(off, id)
	}
	return out
}

// every selects every id.
func every(int32) bool { return true }

// EachFlow calls yield for every flow edge of the run, ordered by (from, to)
// node code — INPUT, then the steps in natural order, as snapshots list them
// — with its data ascending. The edges are derived from the rows, not
// stored: data d produced by p (INPUT when external) flows from p to every
// step that reads it, and to OUTPUT when it is final. data is reused between
// calls; yield must not keep it.
func (ix *Index) EachFlow(yield func(from, to int32, data []int32)) {
	var pairs []uint64 // the current source's (to, d) pairs, to in the high word
	var data []int32
	add := func(d int32) {
		if ix.IsFinal(d) {
			pairs = append(pairs, NodeOutput<<32|uint64(d))
		}
		for _, s := range ix.ConsumersOf(d) {
			pairs = append(pairs, uint64(NodeStep0+s)<<32|uint64(d))
		}
	}
	flush := func(from int32) {
		slices.Sort(pairs)
		for i := 0; i < len(pairs); {
			to := pairs[i] >> 32
			data = data[:0]
			for ; i < len(pairs) && pairs[i]>>32 == to; i++ {
				data = append(data, int32(uint32(pairs[i])))
			}
			yield(from, int32(to), data)
		}
		pairs = pairs[:0]
	}
	for d, p := range ix.t.Producer {
		if p < 0 {
			add(int32(d))
		}
	}
	flush(NodeInput)
	for s := int32(0); s < int32(ix.NumSteps()); s++ {
		for _, d := range ix.OutputsOf(s) {
			add(d)
		}
		flush(NodeStep0 + s)
	}
}

// TopoOrder returns the steps in the run's canonical topological order: Kahn
// with a FIFO queue seeded with the steps that have no step predecessor,
// ascending, each popped step releasing its successors ascending. The order
// depends on the index alone, never on how the run was loaded, so anything
// numbered by it (a view's composite-execution ordinals) is the same for a
// log-ingested run and for its snapshot-reloaded twin. It is computed once
// and shared; callers must not mutate it. A cyclic step relation yields
// fewer than NumSteps entries.
func (ix *Index) TopoOrder() []int32 {
	ix.topoOnce.Do(func() {
		// The (s, t) pairs are enumerated identically when counting and
		// when releasing (repeated when s feeds t several data objects), so
		// the counts balance.
		n := ix.NumSteps()
		indeg := make([]int32, n)
		for s := 0; s < n; s++ {
			for _, d := range ix.OutputsOf(int32(s)) {
				for _, t := range ix.ConsumersOf(d) {
					indeg[t]++
				}
			}
		}
		order := make([]int32, 0, n) // doubles as the queue
		for s := 0; s < n; s++ {
			if indeg[s] == 0 {
				order = append(order, int32(s))
			}
		}
		for head := 0; head < len(order); head++ {
			released := len(order)
			for _, d := range ix.OutputsOf(order[head]) {
				for _, t := range ix.ConsumersOf(d) {
					if indeg[t]--; indeg[t] == 0 {
						order = append(order, t)
					}
				}
			}
			slices.Sort(order[released:])
		}
		ix.topoOrder = order
	})
	return ix.topoOrder
}

// Tokens are a run's data and step names as JSON string tokens, by interned
// id: what the answer encoder copies instead of reading a name.
type Tokens struct {
	Data, Step jsontok.Table
}

// Tokens returns the index's token tables, built on first use and shared;
// safe for concurrent use. They belong to the index and are released with
// it when the run is dropped. A table whose names needed no escaping reads
// its entries' starts off the index's own name offsets (jsontok.Over).
func (ix *Index) Tokens() *Tokens {
	ix.tokOnce.Do(func() {
		ix.tokens = Tokens{Data: jsontok.Over(ix.t.Names, ix.t.DataOff), Step: jsontok.Over(ix.t.Names, ix.t.StepOff)}
		ix.tokDone.Store(true)
	})
	return &ix.tokens
}

// TokenBytes is what the token tables hold, 0 before the first Tokens call.
func (ix *Index) TokenBytes() int {
	if !ix.tokDone.Load() {
		return 0
	}
	return ix.tokens.Data.Bytes() + ix.tokens.Step.Bytes()
}

// DataName returns the data name of an interned id.
func (ix *Index) DataName(id int32) string { return ix.t.name(ix.t.DataOff, id) }

// Producer returns the interned producing step of a data id, or -1 when the
// data is external (user or workflow input).
func (ix *Index) Producer(d int32) int32 { return ix.t.Producer[d] }

// InputsOf returns the interned input data of a step, ascending (= natural
// order). The slice aliases the index; callers must not mutate it.
func (ix *Index) InputsOf(s int32) []int32 { return ix.t.InData[ix.t.InOff[s]:ix.t.InOff[s+1]] }

// OutputsOf returns the interned output data of a step, ascending. The
// slice aliases the index; callers must not mutate it.
func (ix *Index) OutputsOf(s int32) []int32 { return ix.t.OutData[ix.t.OutOff[s]:ix.t.OutOff[s+1]] }

// ConsumersOf returns the interned steps reading a data id. The slice
// aliases the index; callers must not mutate it.
func (ix *Index) ConsumersOf(d int32) []int32 { return ix.t.ConStep[ix.t.ConOff[d]:ix.t.ConOff[d+1]] }

// IsFinal reports whether a data id flows into OUTPUT.
func (ix *Index) IsFinal(d int32) bool { return ix.t.Finals.Has(d) }

// IndexStats describes an index's footprint — what the compact layout
// costs, and what each closure's step set over it costs.
type IndexStats struct {
	// Steps and Data are the interned id counts.
	Steps, Data int
	// CSRBytes is the total size of the flat adjacency arrays (offsets,
	// targets, and the producer column), at 4 bytes per int32.
	CSRBytes int
	// ClosureWords is the number of 64-bit words one closure's step set
	// over this run occupies (its data follow from its steps).
	ClosureWords int
}

// Stats returns the index's footprint.
func (ix *Index) Stats() IndexStats {
	t := &ix.t
	ints := len(t.Producer) +
		len(t.InOff) + len(t.InData) +
		len(t.OutOff) + len(t.OutData) +
		len(t.ConOff) + len(t.ConStep)
	return IndexStats{
		Steps:        ix.NumSteps(),
		Data:         ix.NumData(),
		CSRBytes:     4 * ints,
		ClosureWords: (ix.NumSteps() + 63) / 64,
	}
}

// String renders the footprint on one line.
func (s IndexStats) String() string {
	return fmt.Sprintf("steps=%d data=%d csr=%dB closure=%dw", s.Steps, s.Data, s.CSRBytes, s.ClosureWords)
}
