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
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/warehouse"
)

// ErrForeignView reports a view built over a different specification than
// the queried run's.
var ErrForeignView = errors.New("provenance: view does not match run's specification")

// Engine evaluates provenance queries against a warehouse.
//
// Thread-safety contract: every exported method is safe for concurrent
// use by multiple goroutines. The engine itself holds only two memos of
// derived state, each keyed on the objects it is built from: the views
// built from relevant-module sets, per (specification, set), and the
// view→composite-execution mappings, per (run instance, view). Each entry
// is built at most once, so concurrent first queries never duplicate a
// build; returned views, Mappings and Results are treated as immutable
// after construction and may be shared freely. Both memos live and die
// with the engine, which is tied to one warehouse. The expensive UAdmin
// closures live in the warehouse's sharded singleflight cache, so
// concurrent queries over the same run contend only briefly on a shard
// lock, never on the traversal itself.
type Engine struct {
	w *warehouse.Warehouse

	views    memo[viewKey, *core.UserView]
	mappings memo[mappingKey, *composite.Mapping]

	// obs holds the engine's metrics instruments (nil when detached — the
	// common case, in which queries never read the clock). Published
	// atomically so AttachMetrics is safe against in-flight queries.
	obs atomic.Pointer[engineMetrics]
}

// viewKey names a view built on request: the specification and its
// relevant set, canonical (see View). The empty set is UAdmin.
type viewKey struct {
	spec     *spec.Spec
	relevant string
}

type mappingKey struct {
	r *run.Run
	v *core.UserView
}

// memoBound bounds each of the engine's memos. A server that builds views
// from request-supplied relevant lists mints new keys without end; past the
// bound an arbitrary entry makes room. A rebuilt view or mapping costs a
// fraction of a millisecond, well under one cold query.
const memoBound = 1024

// memo is a bounded map of values built on first use. Each entry is built
// at most once, however many goroutines miss it at the same time — the
// engine-level analogue of the warehouse's singleflight — and its error, if
// any, is kept with it. Past memoBound entries an arbitrary one makes room
// (map iteration order, so effectively random replacement); an evicted
// value stays valid for whoever still holds it.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

// get returns the value under k, building it with build on first use.
func (c *memo[K, V]) get(k K, build func() (V, error)) (V, error) {
	c.mu.Lock()
	ent := c.m[k]
	if ent == nil {
		if c.m == nil {
			c.m = make(map[K]*memoEntry[V])
		}
		if len(c.m) >= memoBound {
			for victim := range c.m {
				delete(c.m, victim)
				break
			}
		}
		ent = new(memoEntry[V])
		c.m[k] = ent
	}
	c.mu.Unlock()
	ent.once.Do(func() { ent.v, ent.err = build() })
	return ent.v, ent.err
}

// deleteFunc removes every entry whose key satisfies del.
func (c *memo[K, V]) deleteFunc(del func(K) bool) {
	c.mu.Lock()
	for k := range c.m {
		if del(k) {
			delete(c.m, k)
		}
	}
	c.mu.Unlock()
}

// NewEngine returns an engine over the given warehouse.
func NewEngine(w *warehouse.Warehouse) *Engine {
	return &Engine{w: w}
}

// Warehouse returns the underlying warehouse.
func (e *Engine) Warehouse() *warehouse.Warehouse { return e.w }

// View resolves a query's choice of view over the specification of run
// runID: the view registered under name when name is non-empty, otherwise
// the view the relevant modules induce (core.BuildRelevant), or UAdmin when
// relevant is empty too. Built views are memoized per (specification,
// relevant set): the set is sorted and deduplicated first, so every
// spelling of one set gets the same *core.UserView — and so meets the same
// memoized mappings. An invalid set's error is memoized with it.
func (e *Engine) View(runID, name string, relevant []string) (*core.UserView, error) {
	r, err := e.w.Run(runID)
	if err != nil {
		return nil, err
	}
	if name != "" {
		return e.w.View(r.SpecName(), name)
	}
	sp, err := e.w.Spec(r.SpecName())
	if err != nil {
		return nil, err
	}
	set := slices.Clone(relevant)
	slices.Sort(set)
	set = slices.Compact(set)
	// Length-prefixed, so no two sets share a key whatever their names hold.
	var key []byte
	for _, m := range set {
		key = append(strconv.AppendInt(key, int64(len(m)), 10), ':')
		key = append(key, m...)
	}
	return e.views.get(viewKey{sp, string(key)}, func() (*core.UserView, error) {
		if len(set) == 0 {
			return core.UAdmin(sp), nil
		}
		return core.BuildRelevant(sp, set)
	})
}

// mapping returns the (cached) composite-execution mapping of a run under a
// view. Mappings depend only on (run, view), not on the queried data, so
// they are shared across queries and built exactly once per key. The key is
// the run instance: a run dropped and re-ingested under the same id is a
// different key, and its old entries are never met again.
func (e *Engine) mapping(r *run.Run, v *core.UserView) (*composite.Mapping, error) {
	return e.mappings.get(mappingKey{r, v}, func() (*composite.Mapping, error) { return composite.Build(r, v) })
}

// DropRun drops a run from the warehouse (Warehouse.DropRun) and forgets the
// mappings memoized for it, which would otherwise keep the run, its index
// and its token tables reachable until other mappings pushed them out.
func (e *Engine) DropRun(runID string) error {
	if err := e.w.DropRun(runID); err != nil {
		return err
	}
	e.mappings.deleteFunc(func(k mappingKey) bool { return k.r.ID() == runID })
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
	return resultOf(e.deepAnswer(context.Background(), runID, v, d))
}

// DeepProvenanceCtx is DeepProvenance with a context. When the context
// carries a trace span (obs.StartSpan / Trace.Context) the query records
// "query.lookup" and "query.project" child spans — the lookup tagged with
// its cache outcome (hit, miss or shared-wait), and the closure cache adding
// "closure.compute" or "closure.shared-wait" beneath it — so a served
// request's trace can explain where its time went. An
// untraced context costs one nil span check and behaves exactly like
// DeepProvenance.
func (e *Engine) DeepProvenanceCtx(ctx context.Context, runID string, v *core.UserView, d string) (*Result, error) {
	return resultOf(e.deepAnswer(ctx, runID, v, d))
}

// DeepAnswerCtx is DeepProvenanceCtx stopping at the integer answer, which
// is what the server encodes.
func (e *Engine) DeepAnswerCtx(ctx context.Context, runID string, v *core.UserView, d string) (*Answer, error) {
	return e.deepAnswer(ctx, runID, v, d)
}

// deepAnswer is the shared query path behind every deep-provenance entry
// point; it stops at the integer answer, and what its stages time is that
// (spelling a Result out is the caller's, after the clock stops). When a
// metrics registry is attached or the context carries a span, it times each
// stage (closure-cache lookup including compute or wait, then view
// projection including the memoized mapping's first build); otherwise it
// never reads the clock, which is what keeps the detached overhead to a few
// nil checks (BenchmarkObsOverhead pins this).
func (e *Engine) deepAnswer(ctx context.Context, runID string, v *core.UserView, d string) (*Answer, error) {
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
	closure, o, err := e.w.DeepProvenanceObservedCtx(lctx, r, d, timed)
	if err == nil {
		lsp.SetTag("outcome", o.Outcome.String())
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
	if m != nil {
		end := time.Now()
		m.queries.Inc()
		m.totalNs[o.Outcome].Observe(end.Sub(start).Nanoseconds())
		m.lookupNs.Observe(projectStart.Sub(start).Nanoseconds())
		if o.Outcome == warehouse.OutcomeMiss {
			m.computeNs.Observe(o.ComputeNs)
		}
		m.projectNs.Observe(end.Sub(projectStart).Nanoseconds())
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
	px, ord, err := e.ImmediateAnswerCtx(ctx, runID, v, d)
	if err != nil || ord < 0 {
		return nil, err // ord < 0: external input, provenance is metadata only
	}
	return px.Execution(ord), nil
}

// ImmediateAnswerCtx is ImmediateProvenanceCtx stopping at the mapping's
// projector and the producing execution's ordinal (negative for external
// input), which is what the server encodes: no Execution is spelled out.
func (e *Engine) ImmediateAnswerCtx(ctx context.Context, runID string, v *core.UserView, d string) (*composite.Projector, int32, error) {
	_, sp := obs.StartSpan(ctx, "query.immediate")
	defer sp.End()
	m, err := e.mappingFor(runID, v)
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
