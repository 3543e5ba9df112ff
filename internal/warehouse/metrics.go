package warehouse

import (
	"time"

	"repro/internal/obs"
)

// warehouseMetrics is the warehouse's attachment: the registry itself and
// its ingest instruments, resolved once at attach time (see obs.Registry:
// returned pointers are stable, recording is lock-free).
type warehouseMetrics struct {
	reg            *obs.Registry
	runsLoaded     *obs.Counter   // ingest.runs_loaded
	events         *obs.Counter   // ingest.events
	logIngestNs    *obs.Histogram // ingest.log_ns, per LoadLogReader call
	snapshotLoadNs *obs.Histogram // ingest.snapshot_load_ns, per LoadWith call
}

// AttachMetrics wires the warehouse and its closure cache to a metrics
// registry; every subsequent ingest event is recorded there, the cache's
// counters are read into it (cache.hits … cache.drops) and its closure
// computes timed (cache.compute_ns), and Stats gains a Metrics snapshot.
// Attaching nil detaches. Safe to call concurrently with queries:
// attachment is published through atomic pointers, and recording sites
// tolerate observing the old registry for a few operations.
//
// The cache keeps the only count of each of its events, so two things
// differ from the ingest instruments:
//
//   - A registry reads the cache's counts since the cache was created or
//     last reset (ResetCache), not since the attach. Attach before the
//     first query, as LoadOptions.Metrics does, and the two agree.
//   - A registry once attached keeps reading the cache after a detach (or
//     after another registry is attached); only cache.compute_ns stops.
func (w *Warehouse) AttachMetrics(reg *obs.Registry) {
	w.cache.attachMetrics(reg)
	if reg == nil {
		w.obs.Store(nil)
		return
	}
	w.obs.Store(&warehouseMetrics{
		reg:            reg,
		runsLoaded:     reg.Counter("ingest.runs_loaded"),
		events:         reg.Counter("ingest.events"),
		logIngestNs:    reg.Histogram("ingest.log_ns"),
		snapshotLoadNs: reg.Histogram("ingest.snapshot_load_ns"),
	})
}

// Metrics returns the attached registry (nil when detached).
func (w *Warehouse) Metrics() *obs.Registry {
	if m := w.obs.Load(); m != nil {
		return m.reg
	}
	return nil
}

// observeRunLoaded records one successful LoadRun.
func (w *Warehouse) observeRunLoaded() {
	if m := w.obs.Load(); m != nil {
		m.runsLoaded.Inc()
	}
}

// observeLogIngest records one LoadLogReader call: events decoded and wall
// time, from which events/s falls out of the exported snapshot
// (ingest.events vs. ingest.log_ns sum).
func (w *Warehouse) observeLogIngest(events int, start time.Time) {
	m := w.obs.Load()
	if m == nil || start.IsZero() {
		return
	}
	m.events.Add(int64(events))
	m.logIngestNs.Observe(time.Since(start).Nanoseconds())
}

// observeSnapshotLoad records one whole-warehouse snapshot load.
func (w *Warehouse) observeSnapshotLoad(start time.Time) {
	m := w.obs.Load()
	if m == nil || start.IsZero() {
		return
	}
	m.snapshotLoadNs.Observe(time.Since(start).Nanoseconds())
}

// metricsTime returns the current time if a registry is attached, else the
// zero Time — ingest paths call it so a detached warehouse never pays for
// time.Now.
func (w *Warehouse) metricsTime() time.Time {
	if w.obs.Load() != nil {
		return time.Now()
	}
	return time.Time{}
}
