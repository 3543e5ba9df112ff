package warehouse

import (
	"time"

	"repro/internal/obs"
)

// warehouseMetrics are the warehouse's ingest instruments, resolved once at
// attach time (see obs.Registry: returned pointers are stable, recording is
// lock-free).
type warehouseMetrics struct {
	runsLoaded     *obs.Counter   // ingest.runs_loaded
	events         *obs.Counter   // ingest.events
	logIngestNs    *obs.Histogram // ingest.log_ns, per LoadLogReader call
	snapshotLoadNs *obs.Histogram // ingest.snapshot_load_ns, per LoadWith call
}

// AttachMetrics wires the warehouse and its closure cache to a metrics
// registry; every subsequent ingest and cache lifecycle event is recorded
// there, and Stats gains a Metrics snapshot. Attaching nil detaches.
// Safe to call concurrently with queries: attachment is published through
// atomic pointers, and recording sites tolerate observing the old registry
// for a few operations.
func (w *Warehouse) AttachMetrics(reg *obs.Registry) {
	w.metricsReg.Store(reg)
	w.cache.attachMetrics(reg)
	if reg == nil {
		w.obs.Store(nil)
		return
	}
	w.obs.Store(&warehouseMetrics{
		runsLoaded:     reg.Counter("ingest.runs_loaded"),
		events:         reg.Counter("ingest.events"),
		logIngestNs:    reg.Histogram("ingest.log_ns"),
		snapshotLoadNs: reg.Histogram("ingest.snapshot_load_ns"),
	})
}

// Metrics returns the attached registry (nil when detached).
func (w *Warehouse) Metrics() *obs.Registry {
	return w.metricsReg.Load()
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
