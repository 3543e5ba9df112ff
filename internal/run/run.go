// Package run models workflow runs (executions) as defined in Section II of
// the paper: a directed acyclic graph whose nodes are steps — each labelled
// with a unique step id and the module it is an instance of — and whose
// edges are labelled with the data objects passed from the source step to
// the target step. Loops in the specification are unrolled, so one module
// may have many steps. The distinguished INPUT and OUTPUT nodes mark the
// beginning and end of the execution; data on INPUT edges was provided by
// the user (or is the workflow's initial input) and data on OUTPUT edges is
// the run's final output.
//
// Data objects are never overwritten: each data id is produced by at most
// one step, which is what makes provenance well defined.
package run

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/graph"
	"repro/internal/spec"
)

// Errors reported by run construction and validation.
var (
	ErrBadStep       = errors.New("run: invalid step")
	ErrBadFlow       = errors.New("run: invalid flow edge")
	ErrTwoProducers  = errors.New("run: data object produced by two steps")
	ErrCyclicRun     = errors.New("run: execution graph is cyclic")
	ErrDisconnected  = errors.New("run: step not on an input-output path")
	ErrNonConformant = errors.New("run: does not conform to specification")
)

// Step is one execution of a module.
type Step struct {
	ID     string `json:"id"`
	Module string `json:"module"`
}

// Run is a workflow execution.
type Run struct {
	id       string
	specName string

	// The string relations. A run adopted from arena tables (ReconstructArena)
	// leaves them nil until a caller of Graph, DataOn, Steps, Producer,
	// Consumers and the like asks: strings builds them, once.
	steps     map[string]Step
	g         *graph.Graph // step ids + INPUT/OUTPUT
	edgeData  map[[2]string][]string
	producer  map[string]string   // data id -> producing step ("" = external)
	consumers map[string][]string // data id -> consuming steps, sorted
	inputMeta map[string]map[string]string

	// snap is the index an adopted run was built around (nil for a run built
	// by AddStep/AddFlow): what the serving path asks of a run — counts,
	// HasData, IsExternal — is answered from it, and snapFlows with it is
	// everything strings needs. A mutator detaches the run from both (own).
	snap        *Index
	snapFlows   []InternedFlow
	stringsOnce sync.Once

	// index is the lazily built compact representation (see index.go),
	// cleared by the mutators so a stale snapshot is never handed out.
	indexMu sync.Mutex
	index   *Index
}

// NewRun returns an empty run for the named specification.
func NewRun(id, specName string) *Run {
	r := &Run{
		id:        id,
		specName:  specName,
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

// ID returns the run identifier.
func (r *Run) ID() string { return r.id }

// SpecName returns the name of the specification this run executes.
func (r *Run) SpecName() string { return r.specName }

// checkStep enforces the per-step rules every construction path shares:
// non-empty id and module, and no reserved INPUT/OUTPUT id.
func checkStep(st Step) error {
	if st.ID == "" || st.Module == "" {
		return fmt.Errorf("%w: empty id or module", ErrBadStep)
	}
	if st.ID == spec.Input || st.ID == spec.Output {
		return fmt.Errorf("%w: step id %q is reserved", ErrBadStep, st.ID)
	}
	return nil
}

// AddStep registers a step. Step ids must be unique, non-empty and must not
// collide with the reserved INPUT/OUTPUT identifiers.
func (r *Run) AddStep(id, module string) error {
	if err := checkStep(Step{ID: id, Module: module}); err != nil {
		return err
	}
	r.own()
	if _, dup := r.steps[id]; dup {
		return fmt.Errorf("%w: duplicate step id %q", ErrBadStep, id)
	}
	r.steps[id] = Step{ID: id, Module: module}
	r.g.AddNode(id)
	return nil
}

// own prepares the run for a mutation. An adopted run first builds its
// string relations and stops answering from the snapshot's index, becoming
// an ordinary heap run; either way the cached index is dropped, so the next
// Index call rebuilds it from the mutated relations. Holders of the old
// index (a warehouse serves a run only through the index it loaded) keep a
// consistent, unmutated view.
func (r *Run) own() {
	if r.snap != nil {
		r.strings()
		r.snap, r.snapFlows = nil, nil
	}
	r.index = nil
}

// strings makes the string relations of an adopted run available. It is the
// first line of every accessor that reads them and a no-op on a heap run.
func (r *Run) strings() {
	if r.snap != nil {
		r.stringsOnce.Do(r.buildStrings)
	}
}

// AddFlow records that the data objects in data flowed from one node to
// another. from may be a step id or INPUT (user/workflow input); to may be
// a step id or OUTPUT (final output). Every edge must carry at least one
// data object — edges in a run represent actual dataflow, not mere
// precedence. A data object may flow along many edges but must always
// originate from the same producer.
func (r *Run) AddFlow(from, to string, data []string) error {
	if from == spec.Output || to == spec.Input {
		return fmt.Errorf("%w: direction %s -> %s", ErrBadFlow, from, to)
	}
	if from == to {
		return fmt.Errorf("%w: self flow on %s", ErrBadFlow, from)
	}
	if len(data) == 0 {
		return fmt.Errorf("%w: edge %s -> %s carries no data", ErrBadFlow, from, to)
	}
	r.own()
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
	existing := r.edgeData[key]
	merged := mergeDataIDs(existing, data)
	r.edgeData[key] = merged
	r.g.AddEdge(from, to)
	if to != spec.Output {
		for _, d := range data {
			r.consumers[d] = insertString(r.consumers[d], to)
		}
	}
	return nil
}

// Step returns the step with the given id.
func (r *Run) Step(id string) (Step, bool) {
	r.strings()
	s, ok := r.steps[id]
	return s, ok
}

// Steps returns all steps sorted by id (natural order: S2 before S10).
func (r *Run) Steps() []Step {
	r.strings()
	out := make([]Step, 0, len(r.steps))
	for _, s := range r.steps {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return lessNatural(out[i].ID, out[j].ID) })
	return out
}

// StepIDs returns all step ids in natural order.
func (r *Run) StepIDs() []string {
	steps := r.Steps()
	out := make([]string, len(steps))
	for i, s := range steps {
		out[i] = s.ID
	}
	return out
}

// NumSteps returns the number of steps.
func (r *Run) NumSteps() int {
	if ix := r.snap; ix != nil {
		return ix.NumSteps()
	}
	return len(r.steps)
}

// NumEdges returns the number of flow edges (including INPUT/OUTPUT edges).
func (r *Run) NumEdges() int {
	if r.snap != nil {
		return len(r.snapFlows)
	}
	return r.g.NumEdges()
}

// Graph exposes the execution DAG (shared, read-only).
func (r *Run) Graph() *graph.Graph {
	r.strings()
	return r.g
}

// DataOn returns the data ids on the edge from -> to, sorted naturally.
func (r *Run) DataOn(from, to string) []string {
	r.strings()
	return append([]string(nil), r.edgeData[[2]string{from, to}]...)
}

// Producer returns the producing step of a data object. The second result
// is false if the data id is unknown; a known data id with producer ""
// is external (user or workflow input).
func (r *Run) Producer(d string) (string, bool) {
	r.strings()
	p, ok := r.producer[d]
	return p, ok
}

// IsExternal reports whether d is a known data object provided from outside
// the run (it flowed out of INPUT).
func (r *Run) IsExternal(d string) bool {
	if ix := r.snap; ix != nil {
		id, ok := ix.DataID(d)
		return ok && ix.Producer(id) < 0
	}
	p, ok := r.producer[d]
	return ok && p == ""
}

// Consumers returns the steps that read d, sorted.
func (r *Run) Consumers(d string) []string {
	r.strings()
	return append([]string(nil), r.consumers[d]...)
}

// InputsOf returns the union of data ids on the incoming edges of a step,
// sorted naturally. For OUTPUT it returns the run's final outputs.
func (r *Run) InputsOf(node string) []string {
	r.strings()
	var out []string
	for _, p := range r.g.Predecessors(node) {
		out = mergeDataIDs(out, r.edgeData[[2]string{p, node}])
	}
	return out
}

// OutputsOf returns the union of data ids on the outgoing edges of a step.
// For INPUT it returns all externally provided data.
func (r *Run) OutputsOf(node string) []string {
	r.strings()
	var out []string
	for _, s := range r.g.Successors(node) {
		out = mergeDataIDs(out, r.edgeData[[2]string{node, s}])
	}
	return out
}

// FinalOutputs returns the data ids flowing into OUTPUT — the run results.
func (r *Run) FinalOutputs() []string { return r.InputsOf(spec.Output) }

// ExternalInputs returns the data ids flowing out of INPUT.
func (r *Run) ExternalInputs() []string { return r.OutputsOf(spec.Input) }

// AllData returns every data id seen in the run, sorted naturally.
func (r *Run) AllData() []string {
	r.strings()
	out := make([]string, 0, len(r.producer))
	for d := range r.producer {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return lessNatural(out[i], out[j]) })
	return out
}

// NumData returns the number of distinct data objects.
func (r *Run) NumData() int {
	if ix := r.snap; ix != nil {
		return ix.NumData()
	}
	return len(r.producer)
}

// HasData reports whether d appears in the run.
func (r *Run) HasData(d string) bool {
	if ix := r.snap; ix != nil {
		_, ok := ix.DataID(d)
		return ok
	}
	_, ok := r.producer[d]
	return ok
}

// Validate checks the structural requirements of Section II: the execution
// graph is acyclic and every step lies on some path from INPUT to OUTPUT.
// The checks are integer sweeps over the compact index, which a run being
// loaded needs next anyway and a snapshot-adopted run already has.
func (r *Run) Validate() error {
	return r.Index().validateStructure()
}

// ConformsTo checks the run against a specification: every step's module
// exists in the spec, and every step-to-step flow corresponds to a
// specification edge between the respective modules. INPUT and OUTPUT edges
// are exempt: the paper's model lets users hand data to any step at run
// time, and any step's products may be part of the final output.
func (r *Run) ConformsTo(s *spec.Spec) error {
	if s.Name() != r.specName {
		return fmt.Errorf("run %q executes %q, not %q: %w", r.id, r.specName, s.Name(), ErrNonConformant)
	}
	r.strings()
	for _, st := range r.steps {
		if !s.HasModule(st.Module) {
			return fmt.Errorf("run %q: step %q instantiates unknown module %q: %w", r.id, st.ID, st.Module, ErrNonConformant)
		}
	}
	var err error
	r.g.EachEdge(func(from, to string) {
		if err != nil || from == spec.Input || to == spec.Output {
			return
		}
		mf, mt := r.steps[from].Module, r.steps[to].Module
		if !s.Graph().HasEdge(mf, mt) {
			err = fmt.Errorf("run %q: flow %s -> %s has no spec edge %s -> %s: %w",
				r.id, from, to, mf, mt, ErrNonConformant)
		}
	})
	return err
}

// StepsOfModule returns the ids of the steps instantiating module, in
// natural order — several when the module sits in an unrolled loop.
func (r *Run) StepsOfModule(module string) []string {
	r.strings()
	var out []string
	for id, s := range r.steps {
		if s.Module == module {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return lessNatural(out[i], out[j]) })
	return out
}

// String implements fmt.Stringer.
func (r *Run) String() string {
	return fmt.Sprintf("run %q of %q: %d steps, %d edges, %d data objects",
		r.id, r.specName, r.NumSteps(), r.NumEdges(), r.NumData())
}

// mergeDataIDs merges two data-id slices, deduplicating, in natural order.
func mergeDataIDs(a, b []string) []string {
	seen := make(map[string]bool, len(a)+len(b))
	out := make([]string, 0, len(a)+len(b))
	for _, xs := range [][]string{a, b} {
		for _, x := range xs {
			if !seen[x] {
				seen[x] = true
				out = append(out, x)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return lessNatural(out[i], out[j]) })
	return out
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

// lessNatural orders strings with trailing integers numerically, so that
// d2 < d10 and S2 < S10, matching the paper's figures.
func lessNatural(a, b string) bool {
	pa, na := splitNatural(a)
	pb, nb := splitNatural(b)
	if pa != pb {
		return pa < pb
	}
	if na != nb {
		return na < nb
	}
	return a < b
}

func splitNatural(s string) (string, int) {
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	if i == len(s) {
		return s, -1
	}
	n, err := strconv.Atoi(s[i:])
	if err != nil {
		return s, -1
	}
	return s[:i], n
}

// DataIDs returns the ids d<from>..d<to> inclusive — a convenience mirroring
// the paper's notation such as {d308, ..., d408}.
func DataIDs(from, to int) []string {
	if to < from {
		return nil
	}
	out := make([]string, 0, to-from+1)
	for i := from; i <= to; i++ {
		out = append(out, "d"+strconv.Itoa(i))
	}
	return out
}

// FormatDataSet renders a data set compactly, collapsing numeric runs:
// {d308..d408}. Used by the CLI and tests.
func FormatDataSet(ids []string) string {
	sorted := mergeDataIDs(nil, ids)
	var parts []string
	i := 0
	for i < len(sorted) {
		p, n := splitNatural(sorted[i])
		if n < 0 {
			parts = append(parts, sorted[i])
			i++
			continue
		}
		j := i
		for j+1 < len(sorted) {
			p2, n2 := splitNatural(sorted[j+1])
			if p2 != p || n2 != n+(j+1-i) {
				break
			}
			j++
		}
		if j > i+1 {
			parts = append(parts, fmt.Sprintf("%s..%s", sorted[i], sorted[j]))
		} else {
			for k := i; k <= j; k++ {
				parts = append(parts, sorted[k])
			}
		}
		i = j + 1
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
