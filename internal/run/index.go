package run

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/bitset"
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
// An Index is a snapshot: it must only be built once the run is fully
// constructed (the warehouse builds it at load time, after validation).
// Mutating the run via AddStep/AddFlow discards any previously built index
// so a stale snapshot is never returned by Run.Index.
type Index struct {
	r *Run

	stepName   []string // interned step id -> step name, natural order
	stepModule []string // interned step id -> module the step instantiates
	dataName   []string // interned data id -> data name, natural order

	producer []int32 // data -> producing step, -1 when external

	inOff, inData   []int32 // step -> input data (CSR)
	outOff, outData []int32 // step -> output data (CSR)
	conOff, conStep []int32 // data -> consuming steps (CSR)

	finals bitset.Set // data flowing into OUTPUT

	topoOnce  sync.Once
	topoOrder []int32 // see TopoOrder; shorter than stepName when cyclic

	tokOnce sync.Once
	tokens  Tokens // see Tokens
}

// Index returns the run's compact index, building it on first use. The
// index is cached; AddStep/AddFlow invalidate the cache, so the returned
// snapshot always matches the run's current contents. Safe for concurrent
// use once the run is no longer being mutated (the warehouse's contract).
func (r *Run) Index() *Index {
	r.indexMu.Lock()
	defer r.indexMu.Unlock()
	if r.index == nil {
		r.index = buildIndex(r)
	}
	return r.index
}

func buildIndex(r *Run) *Index {
	steps := r.Steps() // natural order
	ix := &Index{
		r:          r,
		stepName:   make([]string, len(steps)),
		stepModule: make([]string, len(steps)),
		dataName:   r.AllData(), // natural order
	}
	stepID := make(map[string]int32, len(steps))
	for i, st := range steps {
		ix.stepName[i], ix.stepModule[i] = st.ID, st.Module
		stepID[st.ID] = int32(i)
	}
	dataID := make(map[string]int32, len(ix.dataName))
	for i, d := range ix.dataName {
		dataID[d] = int32(i)
	}

	ix.producer = make([]int32, len(ix.dataName))
	for i, d := range ix.dataName {
		p, _ := r.Producer(d)
		if p == "" {
			ix.producer[i] = -1
		} else {
			ix.producer[i] = stepID[p]
		}
	}

	// Step-side CSR: inputs and outputs per interned step, both in natural
	// (= interned ascending) order because InputsOf/OutputsOf sort naturally.
	ix.inOff = make([]int32, len(ix.stepName)+1)
	ix.outOff = make([]int32, len(ix.stepName)+1)
	for i, s := range ix.stepName {
		for _, d := range r.InputsOf(s) {
			ix.inData = append(ix.inData, dataID[d])
		}
		ix.inOff[i+1] = int32(len(ix.inData))
		for _, d := range r.OutputsOf(s) {
			ix.outData = append(ix.outData, dataID[d])
		}
		ix.outOff[i+1] = int32(len(ix.outData))
	}

	// Data-side CSR: consuming steps per interned data id, ascending (the
	// Consumers accessor sorts lexicographically, so re-sort by id).
	ix.conOff = make([]int32, len(ix.dataName)+1)
	for i, d := range ix.dataName {
		for _, s := range r.Consumers(d) {
			ix.conStep = append(ix.conStep, stepID[s])
		}
		row := ix.conStep[ix.conOff[i]:]
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
		ix.conOff[i+1] = int32(len(ix.conStep))
	}

	ix.finals = bitset.New(len(ix.dataName))
	for _, d := range r.InputsOf(spec.Output) {
		ix.finals.Add(dataID[d])
	}
	return ix
}

// validateStructure checks Validate's invariants on the interned
// representation: the step relation implied by the flows is acyclic and
// every step is forward-reachable from INPUT and backward-reachable from
// OUTPUT. This walk is equivalent to the execution-graph walk because every
// flow's data objects are produced by the flow's source, so "t consumes
// data produced by s" holds exactly when the graph has edge s -> t, and
// INPUT/OUTPUT — a pure source and a pure sink — can never be on a cycle.
func (ix *Index) validateStructure() error {
	n := len(ix.stepName)
	r := ix.r
	order := ix.TopoOrder()
	if len(order) != n {
		return fmt.Errorf("run %q: %w", r.id, ErrCyclicRun)
	}

	// In topological order every predecessor of a step is settled before
	// the step, and in reverse every successor, so each reach is one sweep
	// over the relation the order was computed from. Forward reach starts
	// at the consumers of external data, backward reach at the producers of
	// final data.
	fwd, bwd := make([]bool, n), make([]bool, n)
	for d, p := range ix.producer {
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
			return fmt.Errorf("run %q: step %q unreachable from INPUT: %w", r.id, ix.stepName[s], ErrDisconnected)
		}
		if !bwd[s] {
			return fmt.Errorf("run %q: step %q cannot reach OUTPUT: %w", r.id, ix.stepName[s], ErrDisconnected)
		}
	}
	return nil
}

// Run returns the run this index was built from.
func (ix *Index) Run() *Run { return ix.r }

// NumSteps returns the number of interned steps.
func (ix *Index) NumSteps() int { return len(ix.stepName) }

// NumData returns the number of interned data objects.
func (ix *Index) NumData() int { return len(ix.dataName) }

// StepID returns the interned id of a step name.
func (ix *Index) StepID(name string) (int32, bool) { return searchNatural(ix.stepName, name) }

// DataID returns the interned id of a data name.
func (ix *Index) DataID(name string) (int32, bool) { return searchNatural(ix.dataName, name) }

// searchNatural finds name in a table that is strictly increasing under
// lessNatural (every index's name tables are: buildIndex sorts them and
// ReconstructArena verifies it).
func searchNatural(names []string, name string) (int32, bool) {
	i := sort.Search(len(names), func(i int) bool { return !lessNatural(names[i], name) })
	if i < len(names) && names[i] == name {
		return int32(i), true
	}
	return 0, false
}

// StepName returns the step name of an interned id.
func (ix *Index) StepName(id int32) string { return ix.stepName[id] }

// StepModule returns the module an interned step instantiates.
func (ix *Index) StepModule(id int32) string { return ix.stepModule[id] }

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
		n := len(ix.stepName)
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
// safe for concurrent use. They belong to the index: whatever discards the
// index (AddStep, AddFlow, dropping the run) discards them with it.
func (ix *Index) Tokens() *Tokens {
	ix.tokOnce.Do(func() {
		ix.tokens = Tokens{Data: jsontok.Of(ix.dataName), Step: jsontok.Of(ix.stepName)}
	})
	return &ix.tokens
}

// DataName returns the data name of an interned id.
func (ix *Index) DataName(id int32) string { return ix.dataName[id] }

// Producer returns the interned producing step of a data id, or -1 when the
// data is external (user or workflow input).
func (ix *Index) Producer(d int32) int32 { return ix.producer[d] }

// InputsOf returns the interned input data of a step, ascending (= natural
// order). The slice aliases the index; callers must not mutate it.
func (ix *Index) InputsOf(s int32) []int32 { return ix.inData[ix.inOff[s]:ix.inOff[s+1]] }

// OutputsOf returns the interned output data of a step, ascending. The
// slice aliases the index; callers must not mutate it.
func (ix *Index) OutputsOf(s int32) []int32 { return ix.outData[ix.outOff[s]:ix.outOff[s+1]] }

// ConsumersOf returns the interned steps reading a data id. The slice
// aliases the index; callers must not mutate it.
func (ix *Index) ConsumersOf(d int32) []int32 { return ix.conStep[ix.conOff[d]:ix.conOff[d+1]] }

// IsFinal reports whether a data id flows into OUTPUT.
func (ix *Index) IsFinal(d int32) bool { return ix.finals.Has(d) }

// IndexStats describes an index's footprint — what the compact layout
// costs, and what each closure bitset pair over it costs.
type IndexStats struct {
	// Steps and Data are the interned id counts.
	Steps, Data int
	// CSRBytes is the total size of the flat adjacency arrays (offsets,
	// targets, and the producer column), at 4 bytes per int32.
	CSRBytes int
	// ClosureWords is the number of 64-bit words one step+data closure
	// bitset pair over this run occupies.
	ClosureWords int
}

// Stats returns the index's footprint.
func (ix *Index) Stats() IndexStats {
	ints := len(ix.producer) +
		len(ix.inOff) + len(ix.inData) +
		len(ix.outOff) + len(ix.outData) +
		len(ix.conOff) + len(ix.conStep)
	return IndexStats{
		Steps:        len(ix.stepName),
		Data:         len(ix.dataName),
		CSRBytes:     4 * ints,
		ClosureWords: (len(ix.stepName)+63)/64 + (len(ix.dataName)+63)/64,
	}
}

// String renders the footprint on one line.
func (s IndexStats) String() string {
	return fmt.Sprintf("steps=%d data=%d csr=%dB closure=%dw", s.Steps, s.Data, s.CSRBytes, s.ClosureWords)
}
