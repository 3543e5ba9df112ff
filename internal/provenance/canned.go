package provenance

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/warehouse"
)

// Canned queries. The prototype section of the paper describes, besides the
// flagship deep-provenance query, an interactive repertoire: clicking an
// edge between two steps shows the data passed between them, and "forms to
// express various (canned) provenance queries such as: Return the data
// objects which have a given data object in their data provenance". This
// file implements that repertoire at the user-view level.

// DataBetween returns the data objects passed from one composite execution
// to another under the given view — the prototype's click-on-an-edge
// interaction. The result is nil (not an error) when no data flows between
// them.
func (e *Engine) DataBetween(runID string, v *core.UserView, fromExec, toExec string) ([]string, error) {
	m, err := e.mappingFor(nil, runID, v)
	if err != nil {
		return nil, err
	}
	if _, ok := m.Execution(fromExec); !ok {
		return nil, fmt.Errorf("provenance: unknown execution %q in run %q", fromExec, runID)
	}
	if _, ok := m.Execution(toExec); !ok {
		return nil, fmt.Errorf("provenance: unknown execution %q in run %q", toExec, runID)
	}
	for _, edge := range m.Edges() {
		if edge.From == fromExec && edge.To == toExec {
			return edge.Data, nil
		}
	}
	return nil, nil
}

// InProvenance reports whether candidate is in the deep provenance of
// target (at the UAdmin level — visibility does not change the underlying
// derivation facts, only what is displayed).
func (e *Engine) InProvenance(runID, candidate, target string) (bool, error) {
	closure, err := e.w.DeepProvenance(runID, target)
	if err != nil {
		return false, err
	}
	r, err := e.w.Run(runID)
	if err != nil {
		return false, err
	}
	if !r.HasData(candidate) {
		return false, fmt.Errorf("%w: %q in run %q", warehouse.ErrUnknownData, candidate, runID)
	}
	return candidate != target && closure.HasData(candidate), nil
}

// CommonProvenance returns the data objects lying in the deep provenance
// of both d1 and d2 that are visible under the view — the shared upstream
// the two results depend on.
func (e *Engine) CommonProvenance(runID string, v *core.UserView, d1, d2 string) ([]string, error) {
	r1, err := e.DeepProvenance(runID, v, d1)
	if err != nil {
		return nil, err
	}
	r2, err := e.DeepProvenance(runID, v, d2)
	if err != nil {
		return nil, err
	}
	in2 := make(map[string]bool, len(r2.Data))
	for _, d := range r2.Data {
		in2[d] = true
	}
	var out []string
	for _, d := range r1.Data {
		if in2[d] && d != d1 && d != d2 {
			out = append(out, d)
		}
	}
	return out, nil
}

// ExecutionProvenance returns the deep provenance of a composite
// execution: everything transitively used to assemble its inputs, plus the
// execution itself. This answers "how did this box in my provenance graph
// come to be?" without the user having to pick one of its output data ids.
func (e *Engine) ExecutionProvenance(runID string, v *core.UserView, execID string) (*Result, error) {
	m, err := e.mappingFor(nil, runID, v)
	if err != nil {
		return nil, err
	}
	px := m.Projector()
	ord, ok := px.Ordinal(execID)
	if !ok {
		return nil, fmt.Errorf("provenance: unknown execution %q in run %q", execID, runID)
	}
	// Union the step sets of the execution's inputs' closures into a fresh
	// set (cached closures are shared and read-only); the per-(run, data)
	// cache makes the repeats cheap. The union's data are the inputs and
	// whatever its steps read; the execution itself is visible, but the data
	// internal to it, which its own steps read, are not closure data.
	ix := px.Index()
	stepBits := bitset.New(ix.NumSteps())
	roots := bitset.New(ix.NumData())
	for _, in := range px.InputsOf(ord) {
		c, err := e.w.DeepProvenance(runID, ix.DataName(in))
		if err != nil {
			return nil, err
		}
		_, cs, err := projectorFor(m, c)
		if err != nil {
			return nil, err
		}
		stepBits.Or(cs)
		roots.Add(in)
	}
	visible := visibleExecutions(px, stepBits)
	visible.Add(ord)
	a := &Answer{RunID: runID, Root: execID, Projector: px}
	projectVisible(a, -1, visible, stepBits, roots)
	return a.Result(), nil
}

// Executions lists the composite executions of a run under a view in
// topological order — the run display the prototype draws.
func (e *Engine) Executions(runID string, v *core.UserView) ([]*composite.Execution, error) {
	m, err := e.mappingFor(nil, runID, v)
	if err != nil {
		return nil, err
	}
	return m.Executions(), nil
}

// mappingFor resolves the run and validates the view before handing out
// the cached composite-execution mapping (Warehouse.Mapping).
func (e *Engine) mappingFor(parent *obs.Span, runID string, v *core.UserView) (*composite.Mapping, error) {
	r, err := e.w.Run(runID)
	if err != nil {
		return nil, err
	}
	if r.SpecName() != v.Spec().Name() {
		return nil, fmt.Errorf("%w: run %q executes %q, view is over %q",
			ErrForeignView, runID, r.SpecName(), v.Spec().Name())
	}
	return e.w.Mapping(parent, r, v)
}
