// Package provenance answers provenance queries through user views — the
// purpose of the whole system. The engine implements the strategy the
// paper's evaluation found best (Section V.B, "Query response time"):
// first compute the UAdmin deep provenance (a recursive closure over the
// step-level immediate-provenance relation, cached per run and data object
// by the warehouse), then remove the information hidden inside the
// composite steps of the requested user view. Because the expensive first
// phase is cached, switching the user view on the same run re-projects the
// cached closure and costs milliseconds — the paper's interactive-
// capability result.
package provenance

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/warehouse"
)

// ErrForeignView reports a view built over a different specification than
// the queried run's.
var ErrForeignView = errors.New("provenance: view does not match run's specification")

// Engine evaluates provenance queries against a warehouse.
//
// Thread-safety contract: every exported method is safe for concurrent
// use by multiple goroutines. The engine keeps no state beyond its
// metrics attachment: every memo of derived state — the UAdmin closures,
// the views built from relevant lists and the view mappings — is the
// warehouse's (Warehouse.DeepProvenanceObservedCtx, ResolveView, Mapping),
// so concurrent first queries share one build and a dropped run's entries
// go with it. Returned Mappings and Results are treated as immutable after
// construction and may be shared freely.
type Engine struct {
	w *warehouse.Warehouse

	// obs holds the engine's metrics instruments (nil when detached — the
	// common case, in which queries never read the clock). Published
	// atomically so AttachMetrics is safe against in-flight queries.
	obs atomic.Pointer[engineMetrics]
}

// NewEngine returns an engine over the given warehouse.
func NewEngine(w *warehouse.Warehouse) *Engine { return &Engine{w: w} }

// Warehouse returns the underlying warehouse.
func (e *Engine) Warehouse() *warehouse.Warehouse { return e.w }

// Edge is a dataflow edge of a provenance result graph.
type Edge struct {
	// From is a composite execution id or INPUT.
	From string
	// To is a composite execution id.
	To string
	// Data are the data objects passed, naturally ordered.
	Data []string
}

// Result is the answer to a provenance query under a user view.
type Result struct {
	RunID string
	Root  string
	// External is true when Root was provided by the user or the workflow
	// input; its provenance is then only the recorded metadata.
	External bool
	// Metadata carries the recorded input metadata (who/when) for an
	// external Root — the paper's provenance of user-provided data.
	Metadata map[string]string
	// Executions are the visible composite executions, topologically
	// ordered, with their full input/output sets.
	Executions []*composite.Execution
	// Data are the visible data objects (the paper's result-size metric).
	Data []string
	// Edges form the displayed provenance graph.
	Edges []Edge
}

// NumData returns the number of visible data objects — the metric Figures
// 10 and 11 plot.
func (r *Result) NumData() int { return len(r.Data) }

// NumSteps returns the number of visible composite executions.
func (r *Result) NumSteps() int { return len(r.Executions) }

// Tuples returns the total number of result rows (execution rows plus data
// rows), the warehouse-level answer size.
func (r *Result) Tuples() int { return len(r.Executions) + len(r.Data) }

// DeepProvenance answers the paper's flagship query — "what are all the
// data objects / sequence of steps which have been used to produce this
// data object?" — with respect to a user view.
func (e *Engine) DeepProvenance(runID string, v *core.UserView, d string) (*Result, error) {
	return resultOf(e.DeepAnswerCtx(context.Background(), runID, v, d))
}

// DeepProvenanceCtx is DeepProvenance with a context. When the context
// carries a trace span (obs.StartSpan / Trace.Context) the query records
// "query.lookup" and "query.project" child spans — the lookup tagged with
// its cache outcome (hit, miss or shared-wait), and the closure cache adding
// "closure.compute" or "closure.shared-wait" beneath it, the projection
// "mapping.compute" when the view's mapping is built — so a served
// request's trace can explain where its time went. An
// untraced context costs one nil span check and behaves exactly like
// DeepProvenance.
func (e *Engine) DeepProvenanceCtx(ctx context.Context, runID string, v *core.UserView, d string) (*Result, error) {
	return resultOf(e.DeepAnswerCtx(ctx, runID, v, d))
}

// DeepAnswerCtx is DeepProvenanceCtx stopping at the integer answer, which
// is what the server encodes, and the shared query path behind every
// deep-provenance entry point; what its stages time is the integer answer
// (spelling a Result out is the caller's, after the clock stops). When a
// metrics registry is attached or the context carries a span, it times each
// stage (closure-cache lookup including compute or wait, then view
// projection including the memoized mapping's first build); otherwise it
// never reads the clock, which is what keeps the detached overhead to a few
// nil checks (BenchmarkObsOverhead pins this).
func (e *Engine) DeepAnswerCtx(ctx context.Context, runID string, v *core.UserView, d string) (*Answer, error) {
	m := e.obs.Load()
	sp := obs.SpanFromContext(ctx)
	timed := m != nil || sp != nil
	var start time.Time
	if timed {
		start = time.Now()
	}
	r, err := e.w.Run(runID)
	if err != nil {
		m.queryError()
		return nil, err
	}
	if r.SpecName() != v.Spec().Name() {
		m.queryError()
		return nil, fmt.Errorf("%w: run %q executes %q, view is over %q",
			ErrForeignView, runID, r.SpecName(), v.Spec().Name())
	}
	lctx, lsp := obs.StartSpan(ctx, "query.lookup")
	closure, o, err := e.w.DeepProvenanceObservedCtx(lctx, r, d)
	if err == nil {
		lsp.SetTag("outcome", o.String())
	}
	lsp.End()
	if err != nil {
		m.queryError()
		return nil, err
	}
	// The lookup stage is measured from the query start: the run/view
	// validation above it costs tens of nanoseconds, not worth a third clock
	// read on the warm path.
	var projectStart time.Time
	if timed {
		projectStart = time.Now()
	}
	psp := sp.StartChild("query.project")
	mp, err := e.w.Mapping(psp, r, v)
	var res *Answer
	if err == nil {
		res, err = project(mp, closure)
	}
	psp.End()
	if err != nil {
		m.queryError()
		return nil, err
	}
	if m != nil {
		end := time.Now()
		m.queries.Inc()
		m.totalNs[o].Observe(end.Sub(start).Nanoseconds())
		m.lookupNs.Observe(projectStart.Sub(start).Nanoseconds())
		m.projectNs.Observe(end.Sub(projectStart).Nanoseconds())
	}
	return res, nil
}

// ImmediateProvenance returns the composite execution that produced d under
// the view, with its full input set: "the immediate provenance of d413
// seen by Joe would be S13 and its input, {d308,...,d408} ... whereas that
// seen by Mary would be S12 and its input, {d411}".
func (e *Engine) ImmediateProvenance(runID string, v *core.UserView, d string) (*composite.Execution, error) {
	px, ord, err := e.ImmediateAnswerCtx(context.Background(), runID, v, d)
	if err != nil || ord < 0 {
		return nil, err // ord < 0: external input, provenance is metadata only
	}
	return px.Execution(ord), nil
}

// ImmediateAnswerCtx is ImmediateProvenance with a context, stopping at the
// mapping's projector and the producing execution's ordinal (negative for
// external input), which is what the server encodes: no Execution is
// spelled out. A traced context records the whole stage as one
// "query.immediate" span, with "mapping.compute" beneath it when the
// mapping is built (the query itself is a name lookup and two array reads
// — there are no interior stages worth splitting).
func (e *Engine) ImmediateAnswerCtx(ctx context.Context, runID string, v *core.UserView, d string) (*composite.Projector, int32, error) {
	sp := obs.SpanFromContext(ctx).StartChild("query.immediate")
	defer sp.End()
	m, err := e.mappingFor(sp, runID, v)
	if err != nil {
		return nil, -1, err
	}
	px := m.Projector()
	id, ok := px.Index().DataID(d)
	if !ok {
		return nil, -1, fmt.Errorf("%w: %q in run %q", warehouse.ErrUnknownData, d, runID)
	}
	return px, px.ProducerExec(id), nil
}

// DeepDerivation is the canned inverse query ("return the data objects
// which have a given data object in their data provenance") projected
// through a view. Unlike DeepProvenance its closure is uncached, so the
// attached histogram (query.derivation_ns) records the full traversal each
// time.
func (e *Engine) DeepDerivation(runID string, v *core.UserView, d string) (*Result, error) {
	return resultOf(e.DerivationAnswer(runID, v, d))
}

// DerivationAnswer is DeepDerivation stopping at the integer answer, which
// is what the server encodes.
func (e *Engine) DerivationAnswer(runID string, v *core.UserView, d string) (*Answer, error) {
	m := e.obs.Load()
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	mp, err := e.mappingFor(nil, runID, v)
	if err != nil {
		m.queryError()
		return nil, err
	}
	closure, err := e.w.DeepDerivation(runID, d)
	if err != nil {
		m.queryError()
		return nil, err
	}
	res, err := projectForward(mp, closure)
	if err != nil {
		m.queryError()
		return nil, err
	}
	if m != nil {
		m.forwardNs.Observe(time.Since(start).Nanoseconds())
	}
	return res, nil
}
