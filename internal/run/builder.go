package run

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"

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
	f, okF := nodeCode(from, b.stepID)
	t, okT := nodeCode(to, b.stepID)
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
			return fmt.Errorf("%w: %q produced by %q and %q", ErrTwoProducers, d, nodeName(b.prod[id], b.ids), from)
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

func (b *Builder) stepID(name string) (int32, bool) {
	s, ok := b.stepOf[name]
	return s, ok
}

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
// the tables are laid out as a snapshot stores them: every slice exact-size,
// each CSR row ascending without a sort, because the flows are sorted by
// (from, to) and a data object's flows all leave its producer.
func (b *Builder) Build() (*Run, error) {
	nS, nD := len(b.ids), len(b.data)
	sPerm, sRank := naturalOrder(b.ids)
	dPerm, dRank := naturalOrder(b.data)
	code := func(c int32) int32 {
		if c < NodeStep0 {
			return c
		}
		return NodeStep0 + sRank[c-NodeStep0]
	}

	t := ArenaTables{
		StepIDs: make([]string, nS), StepModules: make([]string, nS),
		DataNames: make([]string, nD), Producer: make([]int32, nD),
		Flows: make([]InternedFlow, len(b.flows)),
	}
	for k, i := range sPerm {
		t.StepIDs[k], t.StepModules[k] = b.ids[i], b.modules[i]
	}
	for k, i := range dPerm {
		t.DataNames[k] = b.data[i]
		t.Producer[k] = -1 // external, or carried by no flow, which ReconstructArena rejects
		if p := b.prod[i]; p >= NodeStep0 {
			t.Producer[k] = sRank[p-NodeStep0]
		}
	}
	intoOneString(t.StepIDs, t.StepModules, t.DataNames)

	total := 0
	for _, f := range b.flows {
		total += len(f.data)
	}
	all := make([]int32, 0, total) // every flow's data, in one allocation
	for i, f := range b.flows {
		start := len(all)
		for _, d := range f.data {
			all = append(all, dRank[d])
		}
		row := all[start:]
		slices.Sort(row)
		row = slices.Compact(row)
		all = all[:start+len(row)]
		t.Flows[i] = InternedFlow{From: code(f.from), To: code(f.to), Data: row[:len(row):len(row)]}
	}
	slices.SortFunc(t.Flows, func(x, y InternedFlow) int {
		return cmp.Or(cmp.Compare(x.From, y.From), cmp.Compare(x.To, y.To))
	})

	t.Finals = bitset.New(nD)
	t.ConOff, t.ConStep = csr(nD, func(emit func(d, s int32)) {
		for _, f := range t.Flows {
			for _, d := range f.Data {
				if f.To == NodeOutput {
					t.Finals.Add(d) // on both passes, which is harmless
				} else {
					emit(d, f.To-NodeStep0)
				}
			}
		}
	})
	// Inputs are the transpose of consumers, outputs the producer column
	// grouped by step; walking data ascending fills both rows ascending.
	t.InOff, t.InData = csr(nS, func(emit func(s, d int32)) {
		for d := int32(0); d < int32(nD); d++ {
			for _, s := range t.ConStep[t.ConOff[d]:t.ConOff[d+1]] {
				emit(s, d)
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

// intoOneString copies the names in tables into one string and points them
// at its substrings, as a v3 run's names are: a built run then holds one
// allocation of names, not the log events' or the decoder's allocations
// they arrived in (small strings share their blocks with garbage).
func intoOneString(tables ...[]string) {
	all := strings.Join(slices.Concat(tables...), "")
	for _, t := range tables {
		for i, s := range t {
			t[i], all = all[:len(s)], all[len(s):]
		}
	}
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
