package provenance

import (
	"repro/internal/obs"
	"repro/internal/warehouse"
)

// engineMetrics are the engine's instruments in an attached registry,
// resolved once at attach time. Query latency is recorded twice: total
// wall time split by cache outcome (totalNs[hit|miss|shared-wait] — the
// paper's warm-vs-cold distinction), and per stage (lookup, projection) so
// a regression can be localized without re-running under a profiler; the
// closure compute inside a lookup is the warehouse's cache.compute_ns.
type engineMetrics struct {
	totalNs   [3]*obs.Histogram // query.deep_total_ns.<outcome>
	lookupNs  *obs.Histogram    // query.lookup_ns (cache hit, compute, or wait)
	projectNs *obs.Histogram    // query.project_ns (mapping build + projection)
	forwardNs *obs.Histogram    // query.derivation_ns (DeepDerivation, uncached)
	queries   *obs.Counter      // query.deep_total
	errors    *obs.Counter      // query.errors

	batches   *obs.Counter   // batch.count
	batchSize *obs.Histogram // batch.size (ids per batch call)
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
		projectNs: reg.Histogram("query.project_ns"),
		forwardNs: reg.Histogram("query.derivation_ns"),
		queries:   reg.Counter("query.deep_total"),
		errors:    reg.Counter("query.errors"),

		batches:   reg.Counter("batch.count"),
		batchSize: reg.Histogram("batch.size"),
	}
	for _, o := range []warehouse.Outcome{warehouse.OutcomeHit, warehouse.OutcomeMiss, warehouse.OutcomeSharedWait} {
		m.totalNs[o] = reg.Histogram("query.deep_total_ns." + o.String())
	}
	e.obs.Store(m)
}
