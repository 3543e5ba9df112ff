package run

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/spec"
	"repro/internal/wflog"
)

// The reference implementation: a run kept as string relations — a steps
// map, a string-keyed graph, data per edge, producer and consumer maps —
// built by the mutators Run had before the Builder replaced them. The
// builder and every accessor of a built Run must agree with it
// (FuzzRunBuilder).
type oracleRun struct {
	id, specName string

	steps     map[string]Step
	g         *graph.Graph // step ids + INPUT/OUTPUT
	edgeData  map[[2]string][]string
	producer  map[string]string   // data id -> producing step ("" = external)
	consumers map[string][]string // data id -> consuming steps, sorted
	inputMeta map[string]map[string]string
}

func newOracle(id, specName string) *oracleRun {
	r := &oracleRun{
		id: id, specName: specName,
		steps:     make(map[string]Step),
		g:         graph.New(),
		edgeData:  make(map[[2]string][]string),
		producer:  make(map[string]string),
		consumers: make(map[string][]string),
	}
	r.g.AddNode(spec.Input)
	r.g.AddNode(spec.Output)
	return r
}

// oracleOf replays a built run into the oracle.
func oracleOf(r *Run) *oracleRun {
	o := newOracle(r.ID(), r.SpecName())
	for _, st := range r.Steps() {
		mustAdd(o.AddStep(st.ID, st.Module))
	}
	for _, f := range r.Flows() {
		mustAdd(o.AddFlow(f.From, f.To, f.Data))
	}
	for _, d := range r.AnnotatedInputs() {
		mustAdd(o.AnnotateInput(d, r.InputMeta(d)))
	}
	return o
}

func (r *oracleRun) AddStep(id, module string) error {
	if err := checkStep(Step{ID: id, Module: module}); err != nil {
		return err
	}
	if _, dup := r.steps[id]; dup {
		return fmt.Errorf("%w: duplicate step id %q", ErrBadStep, id)
	}
	r.steps[id] = Step{ID: id, Module: module}
	r.g.AddNode(id)
	return nil
}

func (r *oracleRun) AddFlow(from, to string, data []string) error {
	if from == spec.Output || to == spec.Input {
		return fmt.Errorf("%w: direction %s -> %s", ErrBadFlow, from, to)
	}
	if from == to {
		return fmt.Errorf("%w: self flow on %s", ErrBadFlow, from)
	}
	if len(data) == 0 {
		return fmt.Errorf("%w: edge %s -> %s carries no data", ErrBadFlow, from, to)
	}
	for _, end := range []string{from, to} {
		if end == spec.Input || end == spec.Output {
			continue
		}
		if _, ok := r.steps[end]; !ok {
			return fmt.Errorf("%w: unknown step %q", ErrBadFlow, end)
		}
	}
	for _, d := range data {
		if d == "" {
			return fmt.Errorf("%w: empty data id on %s -> %s", ErrBadFlow, from, to)
		}
		producer := ""
		if from != spec.Input {
			producer = from
		}
		if prev, seen := r.producer[d]; seen {
			if prev != producer {
				return fmt.Errorf("%w: %q produced by %q and %q", ErrTwoProducers, d, prev, producer)
			}
		} else {
			r.producer[d] = producer
		}
	}
	key := [2]string{from, to}
	r.edgeData[key] = mergeDataIDs(r.edgeData[key], data)
	r.g.AddEdge(from, to)
	if to != spec.Output {
		for _, d := range data {
			r.consumers[d] = insertString(r.consumers[d], to)
		}
	}
	return nil
}

func (r *oracleRun) AnnotateInput(d string, meta map[string]string) error {
	if !r.IsExternal(d) {
		return fmt.Errorf("%w: %q", ErrNotExternal, d)
	}
	if r.inputMeta == nil {
		r.inputMeta = make(map[string]map[string]string)
	}
	m := r.inputMeta[d]
	if m == nil {
		m = make(map[string]string, len(meta))
		r.inputMeta[d] = m
	}
	for k, v := range meta {
		m[k] = v
	}
	return nil
}

func (r *oracleRun) InputMeta(d string) map[string]string {
	m := r.inputMeta[d]
	if m == nil {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func (r *oracleRun) AnnotatedInputs() []string {
	var out []string
	for d := range r.inputMeta {
		out = append(out, d)
	}
	sortNatural(out)
	return out
}

func (r *oracleRun) Steps() []Step {
	out := make([]Step, 0, len(r.steps))
	for _, s := range r.steps {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return lessNatural(out[i].ID, out[j].ID) })
	return out
}

func (r *oracleRun) StepIDs() []string {
	var out []string
	for _, s := range r.Steps() {
		out = append(out, s.ID)
	}
	return out
}

func (r *oracleRun) NumEdges() int { return r.g.NumEdges() }

func (r *oracleRun) DataOn(from, to string) []string {
	return append([]string(nil), r.edgeData[[2]string{from, to}]...)
}

func (r *oracleRun) Producer(d string) (string, bool) {
	p, ok := r.producer[d]
	return p, ok
}

func (r *oracleRun) IsExternal(d string) bool {
	p, ok := r.producer[d]
	return ok && p == ""
}

func (r *oracleRun) Consumers(d string) []string {
	return append([]string(nil), r.consumers[d]...)
}

func (r *oracleRun) InputsOf(node string) []string {
	var out []string
	for _, p := range r.g.Predecessors(node) {
		out = mergeDataIDs(out, r.edgeData[[2]string{p, node}])
	}
	return out
}

func (r *oracleRun) OutputsOf(node string) []string {
	var out []string
	for _, s := range r.g.Successors(node) {
		out = mergeDataIDs(out, r.edgeData[[2]string{node, s}])
	}
	return out
}

func (r *oracleRun) AllData() []string {
	var out []string
	for d := range r.producer {
		out = append(out, d)
	}
	sortNatural(out)
	return out
}

func (r *oracleRun) StepsOfModule(module string) []string {
	var out []string
	for id, s := range r.steps {
		if s.Module == module {
			out = append(out, id)
		}
	}
	sortNatural(out)
	return out
}

// canonical is the run's graph with its nodes added in node-code order —
// INPUT, OUTPUT, the steps naturally — which is what a run reloaded from a
// snapshot has: its Edges are the v1 flow order and its TopoSort is
// Index.TopoOrder on a valid run.
func (r *oracleRun) canonical() *graph.Graph {
	g := graph.New()
	g.AddNode(spec.Input)
	g.AddNode(spec.Output)
	for _, id := range r.StepIDs() {
		g.AddNode(id)
	}
	r.g.EachEdge(func(from, to string) { g.AddEdge(from, to) })
	return g
}

// Flows is the v1 snapshot's flow list.
func (r *oracleRun) Flows() []Flow {
	var out []Flow
	for _, e := range r.canonical().Edges() {
		out = append(out, Flow{From: e.From, To: e.To, Data: r.DataOn(e.From, e.To)})
	}
	return out
}

// Validate is the string-graph form of the structural checks.
func (r *oracleRun) Validate() error {
	if !r.g.IsAcyclic() {
		return ErrCyclicRun
	}
	fwd, bwd := r.g.Reach(spec.Input), r.g.ReachBack(spec.Output)
	for id := range r.steps {
		if !fwd[id] || !bwd[id] {
			return ErrDisconnected
		}
	}
	return nil
}

func (r *oracleRun) ConformsTo(s *spec.Spec) error {
	if s.Name() != r.specName {
		return ErrNonConformant
	}
	for _, st := range r.steps {
		if !s.HasModule(st.Module) {
			return ErrNonConformant
		}
	}
	var err error
	r.g.EachEdge(func(from, to string) {
		if from == spec.Input || to == spec.Output {
			return
		}
		if !s.Graph().HasEdge(r.steps[from].Module, r.steps[to].Module) {
			err = ErrNonConformant
		}
	})
	return err
}

func (r *oracleRun) ToLog() ([]wflog.Event, error) {
	order, err := r.canonical().TopoSort()
	if err != nil {
		return nil, err
	}
	b := wflog.NewBuilder()
	for _, node := range order {
		st, ok := r.steps[node]
		if !ok {
			continue // INPUT/OUTPUT
		}
		b.Start(st.ID, st.Module)
		b.Reads(st.ID, r.InputsOf(st.ID)...)
		b.Writes(st.ID, r.OutputsOf(st.ID)...)
	}
	return b.Events(), nil
}

func (r *oracleRun) Stats() Stats {
	st := Stats{
		Steps:          len(r.steps),
		Edges:          r.NumEdges(),
		Data:           len(r.producer),
		ExternalInputs: len(r.OutputsOf(spec.Input)),
		FinalOutputs:   len(r.InputsOf(spec.Output)),
	}
	for id := range r.steps {
		st.MaxFanOut = max(st.MaxFanOut, r.g.OutDegree(id))
		st.MaxFanIn = max(st.MaxFanIn, r.g.InDegree(id))
	}
	order, err := r.g.TopoSort()
	if err != nil {
		return st
	}
	depth := make(map[string]int, len(order))
	for _, n := range order {
		add := 0
		if _, isStep := r.steps[n]; isStep {
			add = 1
		}
		for _, succ := range r.g.Successors(n) {
			depth[succ] = max(depth[succ], depth[n]+add)
		}
	}
	st.Depth = depth[spec.Output]
	return st
}

// sortNatural sorts ids in natural order.
func sortNatural(ids []string) {
	sort.Slice(ids, func(i, j int) bool { return lessNatural(ids[i], ids[j]) })
}

// mergeDataIDs merges two data-id slices, deduplicating, in natural order.
func mergeDataIDs(a, b []string) []string {
	out := slices.Concat(a, b)
	sortNatural(out)
	return slices.Compact(out)
}

func insertString(xs []string, v string) []string {
	i := sort.SearchStrings(xs, v)
	if i < len(xs) && xs[i] == v {
		return xs
	}
	xs = append(xs, "")
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}
