package run

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/bitset"
	"repro/internal/spec"
)

// Builder assembles a run. AddStep, AddFlow and AnnotateInput check each
// call as it comes and intern names in arrival order; Build sorts them into
// natural order once, merges repeated edges and data, and hands the tables
// to ReconstructArena, so a built run went through the same checks as a
// snapshot's. A call that fails leaves the builder as it was.
type Builder struct {
	id, specName string

	ids, modules []string                    // steps, in arrival order
	stepOf       map[string]int32            // step id -> arrival number
	data         []string                    // arrival order
	dataOf       map[string]int32            // data id -> arrival number
	prod         []int32                     // data -> node code of its producer, -1 until a flow carries it
	flows        []pendingFlow               // edges, in arrival order
	flowOf       map[[2]int32]int32          // (from, to) node codes -> index into flows
	meta         map[int32]map[string]string // data -> input metadata
}

// pendingFlow is one edge as it arrived: node codes and data numbered in
// arrival order, the data unsorted and possibly repeated.
type pendingFlow struct {
	from, to int32
	data     []int32
}

// NewBuilder returns an empty builder for the named run and specification.
func NewBuilder(runID, specName string) *Builder {
	return &Builder{id: runID, specName: specName, stepOf: map[string]int32{}, dataOf: map[string]int32{},
		flowOf: map[[2]int32]int32{}, meta: map[int32]map[string]string{}}
}

// AddStep registers a step. Step ids must be unique, non-empty and must not
// collide with the reserved INPUT/OUTPUT identifiers.
func (b *Builder) AddStep(id, module string) error {
	if err := checkStep(Step{ID: id, Module: module}); err != nil {
		return err
	}
	if _, dup := b.stepOf[id]; dup {
		return fmt.Errorf("%w: duplicate step id %q", ErrBadStep, id)
	}
	b.stepOf[id] = int32(len(b.ids))
	b.ids, b.modules = append(b.ids, id), append(b.modules, module)
	return nil
}

// AddFlow records that the data objects in data flowed from one node to
// another. from may be a step id or INPUT (user/workflow input); to may be
// a step id or OUTPUT (final output). Every edge must carry at least one
// data object — edges in a run represent actual dataflow, not mere
// precedence. A data object may flow along many edges but must always
// originate from the same producer.
func (b *Builder) AddFlow(from, to string, data []string) error {
	if from == spec.Output || to == spec.Input {
		return fmt.Errorf("%w: direction %s -> %s", ErrBadFlow, from, to)
	}
	if from == to {
		return fmt.Errorf("%w: self flow on %s", ErrBadFlow, from)
	}
	if len(data) == 0 {
		return fmt.Errorf("%w: edge %s -> %s carries no data", ErrBadFlow, from, to)
	}
	f, okF := b.node(from)
	t, okT := b.node(to)
	if !okF || !okT {
		unknown := from
		if okF {
			unknown = to
		}
		return fmt.Errorf("%w: unknown step %q", ErrBadFlow, unknown)
	}
	for _, d := range data {
		if d == "" {
			return fmt.Errorf("%w: empty data id on %s -> %s", ErrBadFlow, from, to)
		}
		if id, ok := b.dataOf[d]; ok && b.prod[id] != f {
			return fmt.Errorf("%w: %q produced by %q and %q", ErrTwoProducers, d, nodeName(b.prod[id], b.step), from)
		}
	}
	e := b.edge(f, t)
	for _, d := range data {
		b.carry(e, b.intern(d))
	}
	return nil
}

// AnnotateInput records metadata for an external data object. Repeated
// calls merge keys; later values win.
func (b *Builder) AnnotateInput(d string, meta map[string]string) error {
	id, ok := b.dataOf[d]
	if !ok || b.prod[id] != NodeInput {
		return fmt.Errorf("%w: %q", ErrNotExternal, d)
	}
	m := b.meta[id]
	if m == nil {
		m = make(map[string]string, len(meta))
		b.meta[id] = m
	}
	maps.Copy(m, meta)
	return nil
}

// node resolves a node name — INPUT, OUTPUT, or a step id — to its node
// code.
func (b *Builder) node(name string) (int32, bool) {
	switch name {
	case spec.Input:
		return NodeInput, true
	case spec.Output:
		return NodeOutput, true
	}
	s, ok := b.stepOf[name]
	return NodeStep0 + s, ok
}

// step returns the id of the step with arrival number s.
func (b *Builder) step(s int32) string { return b.ids[s] }

// intern returns the number of a data id, numbering it if it is new.
func (b *Builder) intern(d string) int32 {
	id, ok := b.dataOf[d]
	if !ok {
		id = int32(len(b.data))
		b.dataOf[d] = id
		b.data = append(b.data, d)
		b.prod = append(b.prod, -1)
	}
	return id
}

// edge returns the index of the flow from -> to, adding it if it is new.
func (b *Builder) edge(from, to int32) int32 {
	key := [2]int32{from, to}
	e, ok := b.flowOf[key]
	if !ok {
		e = int32(len(b.flows))
		b.flowOf[key] = e
		b.flows = append(b.flows, pendingFlow{from: from, to: to})
	}
	return e
}

// carry puts data d on flow e, whose source thereby produces it.
func (b *Builder) carry(e, d int32) {
	f := &b.flows[e]
	f.data = append(f.data, d)
	b.prod[d] = f.from
}

// Build returns the run. Steps and data are renumbered in natural order, and
// the tables are laid out as a snapshot stores them: names in one string,
// every slice exact-size, each CSR row ascending. Flows leave only their
// rows behind: a step's inputs, the data final, and the producer column.
func (b *Builder) Build() (*Run, error) {
	nS, nD := len(b.ids), len(b.data)
	sPerm, sRank := naturalOrder(b.ids)
	dPerm, dRank := naturalOrder(b.data)

	// The names go into one string, as a v3 run's do: a built run then holds
	// one allocation of names, not the log events' or the decoder's
	// allocations they arrived in (small strings share their blocks with
	// garbage).
	var arena []byte
	offsets := func(perm []int32, tbl []string) []uint32 {
		off := make([]uint32, 0, len(perm)+1)
		for _, i := range perm {
			off = append(off, uint32(len(arena)))
			arena = append(arena, tbl[i]...)
		}
		return append(off, uint32(len(arena)))
	}
	t := ArenaTables{Producer: make([]int32, nD)}
	t.StepOff, t.ModuleOff, t.DataOff = offsets(sPerm, b.ids), offsets(sPerm, b.modules), offsets(dPerm, b.data)
	t.Names = string(arena) // exact-size
	for k, i := range dPerm {
		t.Producer[k] = -1 // external, or carried by no flow, which ReconstructArena rejects
		if p := b.prod[i]; p >= NodeStep0 {
			t.Producer[k] = sRank[p-NodeStep0]
		}
	}

	t.Finals = bitset.New(nD)
	t.InOff, t.InData = csr(nS, func(emit func(s, d int32)) {
		for _, f := range b.flows {
			for _, d := range f.data {
				if f.to == NodeOutput {
					t.Finals.Add(dRank[d]) // on both passes, which is harmless
				} else {
					emit(sRank[f.to-NodeStep0], dRank[d])
				}
			}
		}
	})
	t.InData = sortRows(t.InOff, t.InData) // a step may read a data object on two calls
	// Consumers are the transpose of inputs, outputs the producer column
	// grouped by step; walking rows ascending fills both rows ascending.
	t.ConOff, t.ConStep = csr(nD, func(emit func(d, s int32)) {
		for s := int32(0); s < int32(nS); s++ {
			for _, d := range t.InData[t.InOff[s]:t.InOff[s+1]] {
				emit(d, s)
			}
		}
	})
	t.OutOff, t.OutData = csr(nS, func(emit func(s, d int32)) {
		for d, p := range t.Producer {
			if p >= 0 {
				emit(p, int32(d))
			}
		}
	})

	if len(b.meta) > 0 {
		t.Meta = make(map[int32]map[string]string, len(b.meta))
		for d, m := range b.meta {
			t.Meta[dRank[d]] = maps.Clone(m)
		}
	}
	return ReconstructArena(b.id, b.specName, t)
}

// csr groups the (row, value) pairs each emits into CSR offsets and values,
// each row in emission order. each is called twice, to count and to fill,
// and must emit the same pairs both times.
func csr(rows int, each func(emit func(row, v int32))) (off, vals []int32) {
	off = make([]int32, rows+1)
	each(func(row, _ int32) { off[row+1]++ })
	for i := 1; i <= rows; i++ {
		off[i] += off[i-1]
	}
	vals = make([]int32, off[rows])
	cur := slices.Clone(off[:rows])
	each(func(row, v int32) { vals[cur[row]] = v; cur[row]++ })
	return off, vals
}

// sortRows sorts each row of a CSR pair and drops repeated values, moving
// the rows down over the gaps and the offsets with them. The values come
// back exact-size.
func sortRows(off, vals []int32) []int32 {
	lo, n := int32(0), int32(0)
	for i := 1; i < len(off); i++ {
		row := vals[lo:off[i]]
		slices.Sort(row)
		row = slices.Compact(row)
		lo = off[i]
		n += int32(copy(vals[n:], row))
		off[i] = n
	}
	if int(n) < len(vals) {
		return slices.Clone(vals[:n])
	}
	return vals
}

// naturalOrder returns the permutation that lists names in natural order,
// and its inverse: each name's rank. Each name is split once, not once per
// comparison.
func naturalOrder(names []string) (perm, rank []int32) {
	keys := make([]natKey, len(names))
	perm, rank = make([]int32, len(names)), make([]int32, len(names))
	for i, s := range names {
		keys[i], perm[i] = natKeyOf(s), int32(i)
	}
	slices.SortFunc(perm, func(i, j int32) int { return keys[i].compare(keys[j]) })
	for k, i := range perm {
		rank[i] = int32(k)
	}
	return perm, rank
}

// Rebuild returns a builder holding the run's steps, flows and input
// metadata: how a changed run is derived from a built one, which itself
// never changes.
func (r *Run) Rebuild() *Builder {
	b := NewBuilder(r.id, r.specName)
	for _, st := range r.Steps() {
		mustAdd(b.AddStep(st.ID, st.Module))
	}
	for _, f := range r.Flows() {
		mustAdd(b.AddFlow(f.From, f.To, f.Data))
	}
	for _, d := range r.AnnotatedInputs() {
		mustAdd(b.AnnotateInput(d, r.InputMeta(d)))
	}
	return b
}
