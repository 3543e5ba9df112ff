package provenance

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/warehouse"
)

// engineMetrics are the engine's instruments in an attached registry,
// resolved once at attach time. Query latency is recorded twice: total
// wall time split by cache outcome (totalNs[hit|miss|shared-wait] — the
// paper's warm-vs-cold distinction), and per stage (lookup, closure
// compute, projection) so a regression can be localized without re-running
// under a profiler.
type engineMetrics struct {
	totalNs   [3]*obs.Histogram // query.deep_total_ns.<outcome>
	lookupNs  *obs.Histogram    // query.lookup_ns (cache hit, compute, or wait)
	computeNs *obs.Histogram    // query.closure_compute_ns (misses only)
	projectNs *obs.Histogram    // query.project_ns (mapping build + projection)
	forwardNs *obs.Histogram    // query.derivation_ns (DeepDerivation, uncached)
	queries   *obs.Counter      // query.deep_total
	errors    *obs.Counter      // query.errors

	// Batch serving: sizes and pool widths per ServeConcurrently call. The
	// worker histogram records the clamped pool size actually spun up, so
	// batch.size vs. batch.workers is the utilization picture.
	batches      *obs.Counter   // batch.count
	batchSize    *obs.Histogram // batch.size
	batchWorkers *obs.Histogram // batch.workers
}

// queryError counts one failed query. Safe (and a no-op) on a nil receiver,
// so the query path can call it without branching on attachment.
func (m *engineMetrics) queryError() {
	if m != nil {
		m.errors.Inc()
	}
}

// AttachMetrics wires the engine to a metrics registry; nil detaches. The
// warehouse underneath keeps its own attachment (see
// Warehouse.AttachMetrics) — zoom.System attaches both from one registry.
func (e *Engine) AttachMetrics(reg *obs.Registry) {
	if reg == nil {
		e.obs.Store(nil)
		return
	}
	m := &engineMetrics{
		lookupNs:  reg.Histogram("query.lookup_ns"),
		computeNs: reg.Histogram("query.closure_compute_ns"),
		projectNs: reg.Histogram("query.project_ns"),
		forwardNs: reg.Histogram("query.derivation_ns"),
		queries:   reg.Counter("query.deep_total"),
		errors:    reg.Counter("query.errors"),

		batches:      reg.Counter("batch.count"),
		batchSize:    reg.Histogram("batch.size"),
		batchWorkers: reg.Histogram("batch.workers"),
	}
	for _, o := range []warehouse.Outcome{warehouse.OutcomeHit, warehouse.OutcomeMiss, warehouse.OutcomeSharedWait} {
		m.totalNs[o] = reg.Histogram("query.deep_total_ns." + o.String())
	}
	e.obs.Store(m)
}

// QueryTrace is the per-stage breakdown of one deep-provenance query — the
// legible analogue of the paper's strategy-timing table. All durations are
// wall-clock nanoseconds; LookupNs covers the whole closure-cache lookup
// (including ComputeNs on a miss, or the wait on another goroutine's
// computation), ProjectNs covers the view projection including building the
// memoized step→composite mapping on its first use.
type QueryTrace struct {
	RunID string `json:"run"`
	View  string `json:"view,omitempty"`
	Data  string `json:"data"`
	// Outcome is how the closure lookup was served: "hit", "miss", or
	// "shared-wait".
	Outcome   string `json:"outcome"`
	LookupNs  int64  `json:"lookup_ns"`
	ComputeNs int64  `json:"compute_ns,omitempty"`
	ProjectNs int64  `json:"project_ns"`
	TotalNs   int64  `json:"total_ns"`
	// Result sizes (the paper's answer-size metric).
	Steps int `json:"steps"`
	Data_ int `json:"data_objects"`
	Edges int `json:"edges"`
}

// String renders the trace as the multi-line breakdown `zoom query -trace`
// prints.
func (tr *QueryTrace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: run=%s data=%s outcome=%s\n", tr.RunID, tr.Data, tr.Outcome)
	fmt.Fprintf(&b, "  closure lookup  %12s", time.Duration(tr.LookupNs))
	if tr.Outcome == warehouse.OutcomeMiss.String() {
		fmt.Fprintf(&b, "  (compute %s)", time.Duration(tr.ComputeNs))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  view projection %12s\n", time.Duration(tr.ProjectNs))
	fmt.Fprintf(&b, "  total           %12s\n", time.Duration(tr.TotalNs))
	fmt.Fprintf(&b, "  result: %d steps, %d data objects, %d edges", tr.Steps, tr.Data_, tr.Edges)
	return b.String()
}

// DeepProvenanceTracedCtx is DeepProvenanceCtx plus a filled QueryTrace: the
// flat per-stage numbers (outcome, lookup, compute, project) that
// `zoom query -trace` prints. A context holding a span tree (obs.StartSpan)
// records the same stages as structured spans, which is what the server
// keeps: its answers carry no timings, so ?trace=1 and the slow log are
// where a served query's stages are read. Tracing forces timing on even when
// no registry is attached, so it is the one query path that always pays for
// clock reads.
func (e *Engine) DeepProvenanceTracedCtx(ctx context.Context, runID string, v *core.UserView, d string) (*Result, *QueryTrace, error) {
	tr := &QueryTrace{RunID: runID, Data: d}
	a, err := e.deepAnswer(ctx, runID, v, d, tr)
	if err != nil {
		return nil, nil, err
	}
	return a.Result(), tr, nil
}
