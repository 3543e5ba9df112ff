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
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
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
	return e.deepProvenance(context.Background(), runID, v, d, nil)
}

// DeepProvenanceCtx is DeepProvenance with a context. When the context
// carries a trace span (obs.StartSpan / Trace.Context) the query records
// "query.lookup" and "query.project" child spans — with the closure cache
// adding "closure.compute" or "closure.shared-wait" beneath the lookup —
// so a served request's response can explain where its time went. An
// untraced context costs one nil span check and behaves exactly like
// DeepProvenance.
func (e *Engine) DeepProvenanceCtx(ctx context.Context, runID string, v *core.UserView, d string) (*Result, error) {
	return e.deepProvenance(ctx, runID, v, d, nil)
}

// deepProvenance is the shared query path behind DeepProvenance and
// DeepProvenanceTracedCtx. When a metrics registry is attached, a trace is
// requested, or the context carries a span, it times each stage
// (closure-cache lookup including compute or wait, then view projection
// including the memoized mapping's first build); otherwise it never reads
// the clock, which is what keeps the detached overhead to a few nil checks
// (BenchmarkObsOverhead pins this).
func (e *Engine) deepProvenance(ctx context.Context, runID string, v *core.UserView, d string, tr *QueryTrace) (*Result, error) {
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
	var res *Result
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
			tr.Steps = res.NumSteps()
			tr.Data_ = res.NumData()
			tr.Edges = len(res.Edges)
		}
	}
	return res, nil
}

// ErrIndexMismatch reports a closure and a view mapping interned over
// different run indexes. Both are derived from the run the warehouse holds
// under one id, so the only way to see it is a run dropped and re-ingested
// between a query's run lookup and its closure lookup.
var ErrIndexMismatch = errors.New("provenance: closure and view mapping are over different run indexes")

// projectorFor returns the mapping's projector and the closure's member
// sets after checking that both speak the same interned ids.
func projectorFor(m *composite.Mapping, c *warehouse.Closure) (*composite.Projector, bitset.Set, bitset.Set, error) {
	px := m.Projector()
	ix, stepBits, dataBits := c.Bits()
	if px.Index() != ix {
		return nil, nil, nil, fmt.Errorf("%w: run %q, root %q: closure index %p, mapping index %p",
			ErrIndexMismatch, m.Run().ID(), c.Root, ix, px.Index())
	}
	return px, stepBits, dataBits, nil
}

// newResult starts the answer for a query rooted at data object root.
func newResult(r *run.Run, root string) *Result {
	res := &Result{RunID: r.ID(), Root: root, External: r.IsExternal(root)}
	if res.External {
		res.Metadata = r.InputMeta(root)
	}
	return res
}

// project restricts a UAdmin closure to what a view shows: the composite
// executions that intersect the closure, the data crossing their
// boundaries, and the edges between them.
func project(m *composite.Mapping, c *warehouse.Closure) (*Result, error) {
	px, stepBits, dataBits, err := projectorFor(m, c)
	if err != nil {
		return nil, err
	}
	res := newResult(m.Run(), c.Root)
	rootID, ok := px.Index().DataID(c.Root)
	if !ok {
		rootID = -1
	}
	projectBits(res, px, rootID, stepBits, dataBits)
	return res, nil
}

// projectBits fills res from closure member sets: closure membership is a
// bit test, the visible-execution set is a bitset over topological
// ordinals, and data comes out naturally sorted for free because interned
// ids are natural ranks. rootID seeds the visible data (negative: no root
// data object, as in ExecutionProvenance).
//
// Edges are reported by (From, To) in string order with natural-order data.
// No string is compared to get there: consumers are walked in the string
// rank of their ids (composite.Projector ranks them once per mapping), an
// execution's inputs are ascending interned ids, so the facts are collected
// already ordered by (To, data), and one stable counting pass on the
// producer's rank finishes the order.
func projectBits(res *Result, px *composite.Projector, rootID int32, stepBits, dataBits bitset.Set) {
	visible := bitset.New(px.NumExecutions())
	stepBits.Each(func(s int32) { visible.Add(px.ExecOfStep(s)) })
	projectVisible(res, px, rootID, visible, dataBits)
}

// projectVisible is projectBits once the visible executions are known (the
// direct strategy finds them by its own traversal).
func projectVisible(res *Result, px *composite.Projector, rootID int32, visible, dataBits bitset.Set) {
	ix := px.Index()
	outData := bitset.New(ix.NumData())
	if rootID >= 0 {
		outData.Add(rootID)
	}
	// Ascending ordinals are topological order, matching m.Executions().
	// With nothing visible the list stays nil, as append would leave it.
	if n := visible.Count(); n > 0 {
		res.Executions = make([]*composite.Execution, 0, n)
	}
	visible.Each(func(ord int32) { res.Executions = append(res.Executions, px.Execution(ord)) })

	sc := edgeScratchPool.Get().(*edgeScratch)
	defer edgeScratchPool.Put(sc)
	input := px.InputEndpoint()
	facts := sc.facts[:0]
	for rank := int32(0); rank <= input; rank++ {
		to := px.EndpointAtRank(rank)
		if to == input || !visible.Has(to) {
			continue
		}
		for _, d := range px.InputsOf(to) {
			if !dataBits.Has(d) {
				continue // input irrelevant to this derivation
			}
			outData.Add(d)
			from := px.ProducerExec(d)
			if from < 0 {
				from = input
			} else if !visible.Has(from) {
				continue
			}
			facts = append(facts, edgeFact{from: px.EndpointRank(from), to: to, d: d})
		}
	}
	sc.facts = facts
	res.Data = make([]string, 0, outData.Count())
	outData.Each(func(d int32) { res.Data = append(res.Data, ix.DataName(d)) })
	if len(facts) == 0 {
		return
	}

	// next[r] is where the next fact whose producer has rank r goes.
	next := slices.Grow(sc.next[:0], int(input)+2)[:input+2]
	clear(next)
	for _, f := range facts {
		next[f.from+1]++
	}
	for r := int32(1); r <= input; r++ {
		next[r] += next[r-1]
	}
	sorted := slices.Grow(sc.sorted[:0], len(facts))[:len(facts)]
	for _, f := range facts {
		sorted[next[f.from]] = f
		next[f.from]++
	}
	sc.next, sc.sorted = next, sorted

	// One Edge per (From, To) group; the groups share one backing array.
	groups := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i].from != sorted[i-1].from || sorted[i].to != sorted[i-1].to {
			groups++
		}
	}
	res.Edges = make([]Edge, 0, groups)
	names := make([]string, len(sorted))
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j].from == sorted[i].from && sorted[j].to == sorted[i].to {
			names[j] = ix.DataName(sorted[j].d)
			j++
		}
		res.Edges = append(res.Edges, Edge{
			From: px.EndpointID(px.EndpointAtRank(sorted[i].from)),
			To:   px.Execution(sorted[i].to).ID,
			Data: names[i:j:j],
		})
		i = j
	}
}

// edgeFact is one "data d flows from → to" fact of a projection, in
// integers: from is the producer endpoint's string rank (the sort key), to
// the consumer's execution ordinal, d the interned data id.
type edgeFact struct {
	from, to, d int32
}

// edgeScratch is the per-query working memory of the edge sort. It is
// pointer-free, pooled across queries, and never reachable from a Result.
type edgeScratch struct {
	facts, sorted []edgeFact
	next          []int32
}

var edgeScratchPool = sync.Pool{New: func() any { return new(edgeScratch) }}

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

// projectForward mirrors project for the derivation direction: visible
// executions intersecting the closure, and the closure data leaving each
// execution toward other visible executions (or toward the final output).
func projectForward(m *composite.Mapping, c *warehouse.Closure) (*Result, error) {
	px, stepBits, dataBits, err := projectorFor(m, c)
	if err != nil {
		return nil, err
	}
	ix := px.Index()
	res := newResult(m.Run(), c.Root)
	visible := bitset.New(px.NumExecutions())
	stepBits.Each(func(s int32) { visible.Add(px.ExecOfStep(s)) })
	outData := bitset.New(ix.NumData())
	if rootID, ok := ix.DataID(c.Root); ok {
		outData.Add(rootID)
	}
	visible.Each(func(ord int32) {
		res.Executions = append(res.Executions, px.Execution(ord))
		for _, d := range px.OutputsOf(ord) {
			if !dataBits.Has(d) {
				continue
			}
			if ix.IsFinal(d) || consumedOutside(ix, px, visible, ord, d) {
				outData.Add(d)
			}
		}
	})
	res.Data = make([]string, 0, outData.Count())
	outData.Each(func(d int32) { res.Data = append(res.Data, ix.DataName(d)) })
	return res, nil
}

func consumedOutside(ix *run.Index, px *composite.Projector, visible bitset.Set, ord, d int32) bool {
	for _, s := range ix.ConsumersOf(d) {
		if e := px.ExecOfStep(s); e != ord && visible.Has(e) {
			return true
		}
	}
	return false
}
