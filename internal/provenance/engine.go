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
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/warehouse"
)

// ErrForeignView reports a view built over a different specification than
// the queried run's.
var ErrForeignView = errors.New("provenance: view does not match run's specification")

// Engine evaluates provenance queries against a warehouse.
//
// Thread-safety contract: every exported method is safe for concurrent
// use by multiple goroutines. The engine itself holds only the memoized
// view→composite-execution mappings, each built at most once per
// (run, view) key via a sync.Once so concurrent first queries on the same
// view never duplicate the Build; returned Mappings and Results are
// treated as immutable after construction and may be shared freely. The
// expensive UAdmin closures live in the warehouse's sharded singleflight
// cache, so concurrent queries over the same run contend only briefly on
// a shard lock, never on the traversal itself.
type Engine struct {
	w *warehouse.Warehouse

	mu       sync.Mutex
	mappings map[mappingKey]*mappingEntry

	// obs holds the engine's metrics instruments (nil when detached — the
	// common case, in which queries never read the clock). Published
	// atomically so AttachMetrics is safe against in-flight queries.
	obs atomic.Pointer[engineMetrics]
}

type mappingKey struct {
	runID string
	view  *core.UserView
}

// maxMappings bounds the mapping memo. Keys hold view pointers, and a
// server that builds views from request-supplied relevant lists mints new
// ones without end; past the bound an arbitrary entry makes room (map
// iteration order, so effectively random replacement). A rebuilt mapping
// costs a fraction of a millisecond, well under one cold query.
const maxMappings = 1024

// mappingEntry memoizes one Build outcome for the run instance r. The Once
// ensures the mapping is computed exactly once even when many goroutines
// miss concurrently — the engine-level analogue of the warehouse's
// singleflight.
type mappingEntry struct {
	r    *run.Run
	once sync.Once
	m    *composite.Mapping
	err  error
}

// NewEngine returns an engine over the given warehouse.
func NewEngine(w *warehouse.Warehouse) *Engine {
	return &Engine{w: w, mappings: make(map[mappingKey]*mappingEntry)}
}

// Warehouse returns the underlying warehouse.
func (e *Engine) Warehouse() *warehouse.Warehouse { return e.w }

// mapping returns the (cached) composite-execution mapping of a run under a
// view. Mappings depend only on (run, view), not on the queried data, so
// they are shared across queries and built exactly once per key. An entry
// answers only for the run instance it was built over: after DropRun and a
// re-ingest under the same id the warehouse hands out a different *run.Run,
// and the stale entry is replaced instead of served. The memo is bounded
// (maxMappings); an evicted mapping stays valid for whoever still holds it.
func (e *Engine) mapping(r *run.Run, v *core.UserView) (*composite.Mapping, error) {
	key := mappingKey{runID: r.ID(), view: v}
	e.mu.Lock()
	ent := e.mappings[key]
	if ent == nil || ent.r != r {
		if ent == nil && len(e.mappings) >= maxMappings {
			for victim := range e.mappings {
				delete(e.mappings, victim)
				break
			}
		}
		ent = &mappingEntry{r: r}
		e.mappings[key] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() { ent.m, ent.err = composite.Build(r, v) })
	return ent.m, ent.err
}

// DropRun drops a run from the warehouse (Warehouse.DropRun) and forgets the
// mappings memoized for it, which would otherwise keep the run, its index
// and its token tables reachable until other mappings pushed them out.
func (e *Engine) DropRun(runID string) error {
	if err := e.w.DropRun(runID); err != nil {
		return err
	}
	e.mu.Lock()
	for key := range e.mappings {
		if key.runID == runID {
			delete(e.mappings, key)
		}
	}
	e.mu.Unlock()
	return nil
}

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
	return resultOf(e.deepAnswer(context.Background(), runID, v, d, nil))
}

// DeepProvenanceCtx is DeepProvenance with a context. When the context
// carries a trace span (obs.StartSpan / Trace.Context) the query records
// "query.lookup" and "query.project" child spans — with the closure cache
// adding "closure.compute" or "closure.shared-wait" beneath the lookup —
// so a served request's response can explain where its time went. An
// untraced context costs one nil span check and behaves exactly like
// DeepProvenance.
func (e *Engine) DeepProvenanceCtx(ctx context.Context, runID string, v *core.UserView, d string) (*Result, error) {
	return resultOf(e.deepAnswer(ctx, runID, v, d, nil))
}

// deepAnswer is the shared query path behind every deep-provenance entry
// point; it stops at the integer answer, and what its stages time is that
// (spelling a Result out is the caller's, after the clock stops). When a
// metrics registry is attached, a trace is requested, or the context carries
// a span, it times each stage (closure-cache lookup including compute or
// wait, then view projection including the memoized mapping's first build);
// otherwise it never reads the clock, which is what keeps the detached
// overhead to a few nil checks (BenchmarkObsOverhead pins this).
func (e *Engine) deepAnswer(ctx context.Context, runID string, v *core.UserView, d string, tr *QueryTrace) (*Answer, error) {
	m := e.obs.Load()
	sp := obs.SpanFromContext(ctx)
	timed := m != nil || tr != nil || sp != nil
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
	closure, o, err := e.w.DeepProvenanceObservedCtx(lctx, runID, d, timed)
	lsp.End()
	if err != nil {
		m.queryError()
		return nil, err
	}
	var lookupNs int64
	var projectStart time.Time
	if timed {
		// The lookup stage is measured from the query start: the run/view
		// validation above it costs tens of nanoseconds, not worth a third
		// clock read on the warm path.
		projectStart = time.Now()
		lookupNs = projectStart.Sub(start).Nanoseconds()
	}
	psp := sp.StartChild("query.project")
	mp, err := e.mapping(r, v)
	var res *Answer
	if err == nil {
		res, err = project(mp, closure)
	}
	psp.End()
	if err != nil {
		m.queryError()
		return nil, err
	}
	if timed {
		end := time.Now()
		projectNs := end.Sub(projectStart).Nanoseconds()
		totalNs := end.Sub(start).Nanoseconds()
		if m != nil {
			m.queries.Inc()
			m.totalNs[o.Outcome].Observe(totalNs)
			m.lookupNs.Observe(lookupNs)
			if o.Outcome == warehouse.OutcomeMiss {
				m.computeNs.Observe(o.ComputeNs)
			}
			m.projectNs.Observe(projectNs)
		}
		if tr != nil {
			tr.Outcome = o.Outcome.String()
			tr.LookupNs = lookupNs
			tr.ComputeNs = o.ComputeNs
			tr.ProjectNs = projectNs
			tr.TotalNs = totalNs
			tr.Steps = len(res.Executions)
			tr.Data_ = len(res.Data)
			tr.Edges = len(res.Edges)
		}
	}
	return res, nil
}

// ImmediateProvenance returns the composite execution that produced d under
// the view, with its full input set: "the immediate provenance of d413
// seen by Joe would be S13 and its input, {d308,...,d408} ... whereas that
// seen by Mary would be S12 and its input, {d411}".
func (e *Engine) ImmediateProvenance(runID string, v *core.UserView, d string) (*composite.Execution, error) {
	return e.ImmediateProvenanceCtx(context.Background(), runID, v, d)
}

// ImmediateProvenanceCtx is ImmediateProvenance with a context; a traced
// context records the whole stage as one "query.immediate" span (the query
// is a name lookup and two array reads — there are no interior stages worth
// splitting).
func (e *Engine) ImmediateProvenanceCtx(ctx context.Context, runID string, v *core.UserView, d string) (*composite.Execution, error) {
	_, sp := obs.StartSpan(ctx, "query.immediate")
	defer sp.End()
	m, err := e.mappingFor(runID, v)
	if err != nil {
		return nil, err
	}
	px := m.Projector()
	id, ok := px.Index().DataID(d)
	if !ok {
		return nil, fmt.Errorf("%w: %q in run %q", warehouse.ErrUnknownData, d, runID)
	}
	ord := px.ProducerExec(id)
	if ord < 0 {
		return nil, nil // external input: provenance is metadata only
	}
	return px.Execution(ord), nil
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
	mp, err := e.mappingFor(runID, v)
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
