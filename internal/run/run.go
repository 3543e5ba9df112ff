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
//
// A run has one representation, its Index. Every way of making a run — a
// Builder, the log loader, a snapshot — ends in ReconstructArena, and a
// built run never changes.
package run

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

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
	// ErrNotExternal reports an attempt to annotate produced (non-external)
	// data with input metadata.
	ErrNotExternal = errors.New("run: data is not external input")
)

// Step is one execution of a module.
type Step struct {
	ID     string `json:"id"`
	Module string `json:"module"`
}

// Flow is one dataflow edge of a run in table form: the data objects that
// passed from one node to another, in natural order.
type Flow struct {
	From string   `json:"from"`
	To   string   `json:"to"`
	Data []string `json:"data"`
}

// Run is a workflow execution: its id, the specification it executes, and
// its index, which holds everything else.
type Run struct {
	id, specName string
	ix           *Index
}

// ID returns the run identifier.
func (r *Run) ID() string { return r.id }

// SpecName returns the name of the specification this run executes.
func (r *Run) SpecName() string { return r.specName }

// Index returns the run's compact index. It is the run's one copy of its
// steps, data and flows, and like the run it never changes.
func (r *Run) Index() *Index { return r.ix }

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

// Steps returns all steps sorted by id (natural order: S2 before S10).
func (r *Run) Steps() []Step {
	out := make([]Step, r.ix.NumSteps())
	for i := range out {
		out[i] = Step{ID: r.ix.StepName(int32(i)), Module: r.ix.StepModule(int32(i))}
	}
	return out
}

// StepIDs returns all step ids in natural order.
func (r *Run) StepIDs() []string { return r.ix.t.namesWhere(r.ix.t.StepOff, every) }

// NumSteps returns the number of steps.
func (r *Run) NumSteps() int { return r.ix.NumSteps() }

// NumEdges returns the number of flow edges (including INPUT/OUTPUT edges),
// counting what EachFlow derives.
func (r *Run) NumEdges() int {
	n := 0
	r.ix.EachFlow(func(_, _ int32, _ []int32) { n++ })
	return n
}

// Flows returns every flow edge ordered by (from, to) node code — INPUT,
// OUTPUT, then the steps in natural order — which is the order snapshots
// list them in.
func (r *Run) Flows() []Flow {
	ix := r.ix
	var out []Flow // nil for none, as a v1 snapshot has it
	ix.EachFlow(func(from, to int32, data []int32) {
		out = append(out, Flow{From: nodeName(from, ix.StepName), To: nodeName(to, ix.StepName), Data: ix.t.names(ix.t.DataOff, data)})
	})
	return out
}

// Producer returns the producing step of a data object. The second result
// is false if the data id is unknown; a known data id with producer ""
// is external (user or workflow input).
func (r *Run) Producer(d string) (string, bool) {
	id, ok := r.ix.DataID(d)
	if !ok {
		return "", false
	}
	if p := r.ix.t.Producer[id]; p >= 0 {
		return r.ix.StepName(p), true
	}
	return "", true
}

// IsExternal reports whether d is a known data object provided from outside
// the run (it flowed out of INPUT).
func (r *Run) IsExternal(d string) bool {
	id, ok := r.ix.DataID(d)
	return ok && r.ix.t.Producer[id] < 0
}

// Consumers returns the steps that read d, sorted.
func (r *Run) Consumers(d string) []string {
	id, ok := r.ix.DataID(d)
	if !ok {
		return nil
	}
	out := r.ix.t.names(r.ix.t.StepOff, r.ix.ConsumersOf(id))
	sort.Strings(out)
	return out
}

// InputsOf returns the union of data ids on the incoming edges of a step,
// sorted naturally. For OUTPUT it returns the run's final outputs.
func (r *Run) InputsOf(node string) []string {
	ix := r.ix
	if node == spec.Output {
		return ix.t.namesWhere(ix.t.DataOff, ix.IsFinal)
	}
	s, ok := ix.StepID(node)
	if !ok {
		return nil
	}
	return ix.t.names(ix.t.DataOff, ix.InputsOf(s))
}

// OutputsOf returns the union of data ids on the outgoing edges of a step.
// For INPUT it returns all externally provided data.
func (r *Run) OutputsOf(node string) []string {
	ix := r.ix
	if node == spec.Input {
		return ix.t.namesWhere(ix.t.DataOff, func(d int32) bool { return ix.t.Producer[d] < 0 })
	}
	s, ok := ix.StepID(node)
	if !ok {
		return nil
	}
	return ix.t.names(ix.t.DataOff, ix.OutputsOf(s))
}

// FinalOutputs returns the data ids flowing into OUTPUT — the run results.
func (r *Run) FinalOutputs() []string { return r.InputsOf(spec.Output) }

// ExternalInputs returns the data ids flowing out of INPUT.
func (r *Run) ExternalInputs() []string { return r.OutputsOf(spec.Input) }

// AllData returns every data id seen in the run, sorted naturally.
func (r *Run) AllData() []string { return r.ix.t.namesWhere(r.ix.t.DataOff, every) }

// NumData returns the number of distinct data objects.
func (r *Run) NumData() int { return r.ix.NumData() }

// HasData reports whether d appears in the run.
func (r *Run) HasData(d string) bool {
	_, ok := r.ix.DataID(d)
	return ok
}

// Validate checks the structural requirements of Section II: the execution
// graph is acyclic and every step lies on some path from INPUT to OUTPUT.
// The checks are integer sweeps over the compact index.
func (r *Run) Validate() error { return r.ix.validateStructure() }

// ConformsTo checks the run against a specification: every step's module
// exists in the spec, and every step-to-step flow corresponds to a
// specification edge between the respective modules. INPUT and OUTPUT edges
// are exempt: the paper's model lets users hand data to any step at run
// time, and any step's products may be part of the final output.
func (r *Run) ConformsTo(s *spec.Spec) error {
	if s.Name() != r.specName {
		return fmt.Errorf("run %q executes %q, not %q: %w", r.id, r.specName, s.Name(), ErrNonConformant)
	}
	ix := r.ix
	for i := int32(0); i < int32(ix.NumSteps()); i++ {
		if m := ix.StepModule(i); !s.HasModule(m) {
			return fmt.Errorf("run %q: step %q instantiates unknown module %q: %w", r.id, ix.StepName(i), m, ErrNonConformant)
		}
	}
	var err error // the first step-to-step flow without a spec edge
	ix.EachFlow(func(from, to int32, _ []int32) {
		if err != nil || from < NodeStep0 || to < NodeStep0 {
			return
		}
		from, to = from-NodeStep0, to-NodeStep0
		if mf, mt := ix.StepModule(from), ix.StepModule(to); !s.Graph().HasEdge(mf, mt) {
			err = fmt.Errorf("run %q: flow %s -> %s has no spec edge %s -> %s: %w",
				r.id, ix.StepName(from), ix.StepName(to), mf, mt, ErrNonConformant)
		}
	})
	return err
}

// StepsOfModule returns the ids of the steps instantiating module, in
// natural order — several when the module sits in an unrolled loop.
func (r *Run) StepsOfModule(module string) []string {
	var out []string
	for i := int32(0); i < int32(r.ix.NumSteps()); i++ {
		if r.ix.StepModule(i) == module {
			out = append(out, r.ix.StepName(i))
		}
	}
	return out
}

// InputMeta returns the recorded metadata of an external data object (a
// copy; nil when none was recorded). The paper's provenance model for
// externally provided data: "If the data is a parameter or was input to the
// workflow execution by a user, its provenance is whatever metadata
// information is recorded, e.g. who input the data and the time at which the
// input occurred." Builder.AnnotateInput records it.
func (r *Run) InputMeta(d string) map[string]string {
	id, ok := r.ix.DataID(d)
	if !ok {
		return nil
	}
	return maps.Clone(r.ix.t.Meta[id])
}

// AnnotatedInputs returns the external data objects that carry metadata,
// naturally ordered.
func (r *Run) AnnotatedInputs() []string {
	ids := make([]int32, 0, len(r.ix.t.Meta))
	for d := range r.ix.t.Meta {
		ids = append(ids, d)
	}
	slices.Sort(ids)
	return r.ix.t.names(r.ix.t.DataOff, ids)
}

// Tables returns the run in arena form, which is what a v3 snapshot
// stores. The slices alias the run; callers must not modify them.
func (r *Run) Tables() ArenaTables { return r.ix.t }

// String implements fmt.Stringer.
func (r *Run) String() string {
	return fmt.Sprintf("run %q of %q: %d steps, %d edges, %d data objects",
		r.id, r.specName, r.NumSteps(), r.NumEdges(), r.NumData())
}

// lessNatural orders strings with trailing integers numerically, so that
// d2 < d10 and S2 < S10, matching the paper's figures.
func lessNatural(a, b string) bool { return natKeyOf(a).compare(natKeyOf(b)) < 0 }

// natKey is a name split for natural ordering once, so that sorting or
// searching many names does not split one of them again per comparison.
type natKey struct {
	name, prefix string
	n            int
}

func natKeyOf(s string) natKey {
	p, n := splitNatural(s)
	return natKey{name: s, prefix: p, n: n}
}

// compare orders keys as lessNatural orders their names.
func (a natKey) compare(b natKey) int {
	switch {
	case a.prefix != b.prefix:
		return strings.Compare(a.prefix, b.prefix)
	case a.n != b.n:
		return cmp.Compare(a.n, b.n)
	default:
		return strings.Compare(a.name, b.name)
	}
}

// splitNatural splits s into the prefix before its trailing decimal digits
// and their value, leading zeros and all. A name without trailing digits,
// or whose digits overflow an int, is its own prefix with number -1.
func splitNatural(s string) (string, int) {
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	if i == len(s) {
		return s, -1
	}
	n := 0
	for j := i; j < len(s); j++ {
		d := int(s[j] - '0')
		if n > (math.MaxInt-d)/10 {
			return s, -1
		}
		n = n*10 + d
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
	sorted := slices.Clone(ids)
	sort.Slice(sorted, func(i, j int) bool { return lessNatural(sorted[i], sorted[j]) })
	sorted = slices.Compact(sorted)
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
