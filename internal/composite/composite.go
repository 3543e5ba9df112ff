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
package composite

import (
	"errors"
	"fmt"
	"sort"
	"sync"

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

// Mapping relates a run to the composite executions induced by a view.
type Mapping struct {
	r      *run.Run
	v      *core.UserView
	execs  map[string]*Execution // id -> execution
	ofStep map[string]string     // step id -> execution id
	order  []string              // execution ids in topological order

	projOnce sync.Once
	proj     *Projector
}

// Build computes the composite executions of r under view v. Every module
// instantiated by the run must belong to some composite of the view.
func Build(r *run.Run, v *core.UserView) (*Mapping, error) {
	m := &Mapping{
		r:      r,
		v:      v,
		execs:  make(map[string]*Execution),
		ofStep: make(map[string]string),
	}
	// Group steps by composite.
	byComp := make(map[string][]string)
	for _, st := range r.Steps() {
		comp, ok := v.CompositeOf(st.Module)
		if !ok {
			return nil, fmt.Errorf("%w: module %q of step %q not in view", ErrViewMismatch, st.Module, st.ID)
		}
		byComp[comp] = append(byComp[comp], st.ID)
	}
	// Weak components within each composite's step set.
	g := r.Graph()
	comps := make([]string, 0, len(byComp))
	for c := range byComp {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	type protoExec struct {
		comp  string
		steps []string
	}
	var protos []protoExec
	for _, comp := range comps {
		keep := make(map[string]bool, len(byComp[comp]))
		for _, id := range byComp[comp] {
			keep[id] = true
		}
		sub := g.InducedSubgraph(keep)
		for _, cc := range sub.WeaklyConnectedComponents() {
			sortNatural(cc)
			protos = append(protos, protoExec{comp: comp, steps: cc})
		}
	}
	// Topologically order executions by their earliest step position so
	// ordinals are stable and meaningful.
	topo, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("composite: run graph cyclic: %w", err)
	}
	pos := make(map[string]int, len(topo))
	for i, n := range topo {
		pos[n] = i
	}
	sort.SliceStable(protos, func(i, j int) bool {
		return pos[protos[i].steps[0]] < pos[protos[j].steps[0]]
	})
	ordinal := make(map[string]int)
	for _, p := range protos {
		var id string
		if len(p.steps) == 1 {
			id = p.steps[0]
		} else {
			ordinal[p.comp]++
			id = fmt.Sprintf("%s@%d", p.comp, ordinal[p.comp])
		}
		e := &Execution{ID: id, Composite: p.comp, Steps: p.steps}
		m.execs[id] = e
		m.order = append(m.order, id)
		for _, s := range p.steps {
			m.ofStep[s] = id
		}
	}
	// Compute inputs and outputs.
	for _, e := range m.execs {
		inSet := make(map[string]bool)
		outSet := make(map[string]bool)
		member := make(map[string]bool, len(e.Steps))
		for _, s := range e.Steps {
			member[s] = true
		}
		for _, s := range e.Steps {
			for _, p := range g.Predecessors(s) {
				if !member[p] {
					for _, d := range r.DataOn(p, s) {
						inSet[d] = true
					}
				}
			}
			for _, w := range g.Successors(s) {
				if !member[w] {
					for _, d := range r.DataOn(s, w) {
						outSet[d] = true
					}
				}
			}
		}
		e.Inputs = sortedNatural(inSet)
		e.Outputs = sortedNatural(outSet)
	}
	return m, nil
}

// Run returns the underlying run.
func (m *Mapping) Run() *run.Run { return m.r }

// View returns the view the mapping was built for.
func (m *Mapping) View() *core.UserView { return m.v }

// Execution returns the execution with the given id.
func (m *Mapping) Execution(id string) (*Execution, bool) {
	e, ok := m.execs[id]
	return e, ok
}

// Executions returns all executions in topological order.
func (m *Mapping) Executions() []*Execution {
	out := make([]*Execution, len(m.order))
	for i, id := range m.order {
		out[i] = m.execs[id]
	}
	return out
}

// NumExecutions returns the number of composite executions.
func (m *Mapping) NumExecutions() int { return len(m.execs) }

// ExecutionOf returns the execution id containing the given step.
func (m *Mapping) ExecutionOf(step string) (string, bool) {
	id, ok := m.ofStep[step]
	return id, ok
}

// ExecutionsOf returns the executions of one composite module, in order.
func (m *Mapping) ExecutionsOf(composite string) []*Execution {
	var out []*Execution
	for _, id := range m.order {
		if m.execs[id].Composite == composite {
			out = append(out, m.execs[id])
		}
	}
	return out
}

// ProducerExecution returns the execution that produced data object d, or
// ("", false) when d is external (user/workflow input) or unknown.
func (m *Mapping) ProducerExecution(d string) (string, bool) {
	p, ok := m.r.Producer(d)
	if !ok || p == "" {
		return "", false
	}
	id, ok := m.ofStep[p]
	return id, ok
}

// Visible reports whether data object d crosses execution boundaries under
// this mapping: d is visible iff it is external, a final output, or flows
// between two different executions. Data internal to one execution is
// hidden ("Joe would not see the data d411").
func (m *Mapping) Visible(d string) bool {
	p, ok := m.r.Producer(d)
	if !ok {
		return false
	}
	if p == "" {
		return true // user/workflow input
	}
	pe := m.ofStep[p]
	for _, c := range m.r.Consumers(d) {
		if m.ofStep[c] != pe {
			return true
		}
	}
	// Final outputs have no consuming step but leave via OUTPUT.
	for _, fo := range m.r.FinalOutputs() {
		if fo == d {
			return true
		}
	}
	return false
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
	acc := make(map[[2]string]map[string]bool)
	add := func(from, to, d string) {
		key := [2]string{from, to}
		if acc[key] == nil {
			acc[key] = make(map[string]bool)
		}
		acc[key][d] = true
	}
	m.r.Graph().EachEdge(func(u, w string) {
		for _, d := range m.r.DataOn(u, w) {
			from, to := u, w
			if u != spec.Input {
				from = m.ofStep[u]
			}
			if w != spec.Output {
				to = m.ofStep[w]
			}
			if from != to {
				add(from, to, d)
			}
		}
	})
	keys := make([][2]string, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]Edge, len(keys))
	for i, k := range keys {
		out[i] = Edge{From: k[0], To: k[1], Data: sortedNatural(acc[k])}
	}
	return out
}

func sortedNatural(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sortNatural(out)
	return out
}

// sortNatural sorts ids with numeric suffixes numerically (d2 < d10).
func sortNatural(xs []string) {
	sort.Slice(xs, func(i, j int) bool { return lessNatural(xs[i], xs[j]) })
}

func lessNatural(a, b string) bool {
	pa, na := splitNat(a)
	pb, nb := splitNat(b)
	if pa != pb {
		return pa < pb
	}
	if na != nb {
		return na < nb
	}
	return a < b
}

func splitNat(s string) (string, int) {
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	// No digit suffix, or one too long to fit an int without overflow
	// (> 18 digits): fall back to plain string comparison.
	if i == len(s) || len(s)-i > 18 {
		return s, -1
	}
	n := 0
	for _, c := range s[i:] {
		n = n*10 + int(c-'0')
	}
	return s[:i], n
}
