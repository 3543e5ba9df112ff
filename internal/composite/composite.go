// Package composite synthesizes composite executions (Section II): the
// execution of consecutive steps within the same composite module causes a
// virtual execution of the composite step. In Figure 2, Joe's composite M10
// = {M3, M4, M5} has the single virtual execution S13 = {S2..S6} with input
// {d308..d408} and output {d413}, while Mary's M11 = {M3, M4} has two —
// S11 = {S2, S3} and S12 = {S5, S6} — because the visible step S4:M5 sits
// between them.
//
// Formally a composite execution is a weakly connected component of the run
// DAG restricted to the steps whose module belongs to one composite. Its
// inputs are the data objects entering the component from outside (or from
// the user); its outputs are the data objects leaving it (or ending the
// run). Data passed between steps inside one component is hidden.
//
// One consequence worth calling out: the rule applies to *every* view,
// including UAdmin. A self-looping module's consecutive iterations are
// consecutive steps of one (singleton) composite, so they merge into a
// single virtual execution and the data passed between iterations is
// hidden even at the finest granularity — just as Joe's S13 hides the
// looping of M3. The paper's example workflows only contain multi-module
// loops, where UAdmin keeps every iteration separate because a visible
// step of another module always sits between them.
//
// Everything here is computed on the run's compact index (run.Index): what
// depends on the view is a module -> composite table over the specification,
// shared by every run of it (core.UserView.CompositeIndex), and per run the
// work is O(steps + flows) on integers. Executions are numbered in the
// run's canonical topological order (run.Index.TopoOrder), so an execution's
// ordinal and its <composite>@<k> id are properties of the run and the view,
// not of how the run was loaded.
package composite

import (
	"errors"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/run"
	"repro/internal/spec"
)

// ErrViewMismatch reports a view whose specification does not cover the
// run's modules.
var ErrViewMismatch = errors.New("composite: view does not cover run")

// Execution is one virtual execution of a composite module.
type Execution struct {
	// ID identifies the execution. Single-step executions keep their step
	// id (so UAdmin provenance reads exactly like the paper's S1..S10);
	// multi-step executions are named <composite>@<ordinal>.
	ID string
	// Composite is the composite module this is an execution of.
	Composite string
	// Steps are the member step ids in natural order.
	Steps []string
	// Inputs are the data objects entering the execution from outside.
	Inputs []string
	// Outputs are the data objects leaving the execution.
	Outputs []string
}

// Mapping relates a run to the composite executions induced by a view. It
// is immutable once built and safe to share. The Execution values are built
// on the first call that returns or names one (see Projector).
type Mapping struct {
	p *Projector
}

// Build computes the composite executions of r under view v. Every module
// instantiated by the run must belong to some composite of the view.
func Build(r *run.Run, v *core.UserView) (*Mapping, error) {
	p, err := buildProjector(r.Index(), v)
	if err != nil {
		return nil, err
	}
	return &Mapping{p: p}, nil
}

// Run returns the underlying run.
func (m *Mapping) Run() *run.Run { return m.p.ix.Run() }

// Projector returns the mapping's integer-indexed face.
func (m *Mapping) Projector() *Projector { return m.p }

// Execution returns the execution with the given id.
func (m *Mapping) Execution(id string) (*Execution, bool) {
	ord, ok := m.p.Ordinal(id)
	if !ok {
		return nil, false
	}
	return m.p.Execution(ord), true
}

// Executions returns all executions in topological order.
func (m *Mapping) Executions() []*Execution {
	execs := m.p.executions()
	out := make([]*Execution, len(execs))
	for i := range execs {
		out[i] = &execs[i]
	}
	return out
}

// NumExecutions returns the number of composite executions.
func (m *Mapping) NumExecutions() int { return m.p.NumExecutions() }

// ExecutionOf returns the execution id containing the given step.
func (m *Mapping) ExecutionOf(step string) (string, bool) {
	s, ok := m.p.ix.StepID(step)
	if !ok {
		return "", false
	}
	return m.p.Execution(m.p.stepExec[s]).ID, true
}

// ExecutionsOf returns the executions of one composite module, in order.
func (m *Mapping) ExecutionsOf(composite string) []*Execution {
	var out []*Execution
	execs := m.p.executions()
	for i := range execs {
		if execs[i].Composite == composite {
			out = append(out, &execs[i])
		}
	}
	return out
}

// ProducerExecution returns the execution that produced data object d, or
// ("", false) when d is external (user/workflow input) or unknown.
func (m *Mapping) ProducerExecution(d string) (string, bool) {
	id, ok := m.p.ix.DataID(d)
	if !ok {
		return "", false
	}
	pe := m.p.ProducerExec(id)
	if pe < 0 {
		return "", false
	}
	return m.p.Execution(pe).ID, true
}

// Visible reports whether data object d crosses execution boundaries under
// this mapping: d is visible iff it is external, a final output, or flows
// between two different executions. Data internal to one execution is
// hidden ("Joe would not see the data d411").
func (m *Mapping) Visible(d string) bool {
	id, ok := m.p.ix.DataID(d)
	if !ok {
		return false
	}
	return m.p.ix.Producer(id) < 0 || m.p.ix.IsFinal(id) || m.p.leaves(id)
}

// Edge is a dataflow edge between two composite executions (or INPUT /
// OUTPUT endpoints), labelled with the data passed.
type Edge struct {
	From, To string
	Data     []string
}

// Edges returns the execution-level dataflow: one edge per ordered pair of
// distinct executions that exchange data, plus INPUT and OUTPUT edges,
// ordered deterministically.
func (m *Mapping) Edges() []Edge {
	p, ix := m.p, m.p.ix
	input := p.InputEndpoint()
	output := input + 1
	name := func(end int32) string {
		if end == output {
			return spec.Output
		}
		return p.EndpointID(end)
	}
	endpoint := func(d int32) int32 {
		if pe := p.ProducerExec(d); pe >= 0 {
			return pe
		}
		return input
	}
	type fact struct{ from, to, d int32 }
	var facts []fact
	for to := int32(0); to < input; to++ {
		for _, d := range p.InputsOf(to) {
			facts = append(facts, fact{endpoint(d), to, d})
		}
	}
	for d := int32(0); int(d) < ix.NumData(); d++ {
		if ix.IsFinal(d) {
			facts = append(facts, fact{endpoint(d), output, d})
		}
	}
	// Stable, and each consumer's facts were collected by ascending data id:
	// each edge's data comes out in natural order.
	slices.SortStableFunc(facts, func(a, b fact) int {
		if c := strings.Compare(name(a.from), name(b.from)); c != 0 {
			return c
		}
		return strings.Compare(name(a.to), name(b.to))
	})
	var out []Edge
	for i, f := range facts {
		if i == 0 || f.from != facts[i-1].from || f.to != facts[i-1].to {
			out = append(out, Edge{From: name(f.from), To: name(f.to)})
		}
		e := &out[len(out)-1]
		e.Data = append(e.Data, ix.DataName(f.d))
	}
	return out
}
