package warehouse

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// Stats summarizes the warehouse contents — the row counts a database
// administrator would read off the catalog. The cache fields are atomic
// snapshots; under concurrent traffic they are each exact, though the set
// is not one instantaneous cut.
type Stats struct {
	Specs       int
	Views       int
	Runs        int
	Steps       int
	FlowEdges   int
	DataObjects int
	CacheHits   int64
	CacheMisses int64
	Cache       CacheCounters
	// Snapshot describes the snapshot this warehouse was opened from and,
	// for v3 opens, how much of it has materialized (zero value for live
	// warehouses and v1 loads).
	Snapshot SnapshotStats
	// Index summarizes the compact run indexes (interned ids, CSR bytes,
	// closure bitset words) across all loaded runs.
	Index IndexStats
	// Metrics is a snapshot of the attached observability registry (nil
	// unless AttachMetrics was called): query-stage latency histograms,
	// ingest throughput, and cache lifecycle counters.
	Metrics *obs.Snapshot
}

// CacheCounters are the closure cache's global counters. All of them are
// maintained with atomic adds (never plain increments), so reading them
// during a 32-goroutine stress run is race-free. At any quiescent point
// (no lookup, invalidation, drop, or reset in flight) they satisfy:
//
//	Hits + Misses + SharedWaits == number of closure lookups
//	Computes == Misses                 (every miss leads one singleflight)
//	Stores <= Computes                 (errors and dropped runs not cached)
//	Stores == Evictions + Invalidations + Drops + cached entries
//
// The last line is the removal-accounting invariant: every closure that
// ever entered the cache is either still cached or left through exactly one
// counted exit (LRU eviction, explicit invalidation, or run drop). Reset
// zeroes all counters together with the cache, so the invariants hold
// afterwards for every lookup that did not straddle the reset.
type CacheCounters struct {
	// Hits and Misses count lookups served from / absent from the shards.
	Hits, Misses int64
	// SharedWaits counts lookups that piggy-backed on another goroutine's
	// in-flight computation instead of recomputing (the singleflight win).
	SharedWaits int64
	// Computes counts closure computations. It is read from Misses (every
	// miss leads one computation), so Computes == Misses by construction.
	Computes int64
	// Stores counts closures inserted into the cache (a compute whose run
	// the warehouse still served).
	Stores int64
	// Evictions counts LRU evictions across all shards.
	Evictions int64
	// Invalidations counts explicit single-key invalidations that removed
	// a cached entry; invalidating an absent key does not count.
	Invalidations int64
	// Drops counts entries removed because their run was dropped.
	Drops int64
}

// SnapshotStats describes a warehouse's snapshot provenance: the on-disk
// format version it was opened from (0 for warehouses built live), whether
// the snapshot is memory-mapped and how many bytes the mapping covers, and
// the lazy-materialization progress of a v3 open (RunsMaterialized counts
// runs whose tables are resident; queries materialize runs on demand).
type SnapshotStats struct {
	Version          int
	Mapped           bool
	MappedBytes      int
	RunsTotal        int
	RunsMaterialized int
}

// Stats computes the current warehouse statistics.
func (w *Warehouse) Stats() Stats {
	w.mu.RLock()
	defer w.mu.RUnlock()
	var st Stats
	st.Specs = len(w.specs)
	for _, vs := range w.views {
		st.Views += len(vs)
	}
	st.Runs = len(w.runs)
	st.Snapshot.RunsTotal = len(w.runs)
	if w.snap != nil {
		st.Snapshot.Version = w.snap.version
		st.Snapshot.Mapped = w.snap.mapped
		if w.snap.mapped {
			st.Snapshot.MappedBytes = w.snap.bytes
		}
	}
	for _, rt := range w.runs {
		if lz := rt.lazy; lz != nil && !lz.done.Load() {
			// Unmaterialized (or failed) v3 run: report the directory counts
			// without forcing the tables resident. The done.Load gate also
			// orders this loop against a concurrent materialization.
			st.Steps += lz.rec.steps
			st.FlowEdges += lz.rec.edges
			st.DataObjects += lz.rec.data
			continue
		}
		st.Snapshot.RunsMaterialized++
		st.Steps += rt.run.NumSteps()
		st.FlowEdges += rt.run.NumEdges()
		st.DataObjects += rt.run.NumData()
	}
	if w.snap == nil {
		st.Snapshot.RunsMaterialized = len(w.runs)
	}
	st.Cache = w.cache.counters()
	st.CacheHits, st.CacheMisses = st.Cache.Hits, st.Cache.Misses
	st.Index = w.indexStatsLocked()
	if reg := w.Metrics(); reg != nil {
		snap := reg.Snapshot()
		st.Metrics = &snap
	}
	return st
}

// RunInfo is one row of the run catalog, and of GET /v1/runs.
type RunInfo struct {
	ID    string `json:"id"`
	Spec  string `json:"spec"`
	Steps int    `json:"steps"`
	Edges int    `json:"edges"`
}

// RunCatalog lists the loaded runs, sorted by id. A run opened from a v3
// snapshot is listed from the snapshot's run directory, whether or not it
// has materialized (materialization verifies the block against the same
// counts), so a listing never forces a run resident and never hides one
// whose block is damaged.
func (w *Warehouse) RunCatalog() []RunInfo {
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make([]RunInfo, 0, len(w.runs))
	for id, rt := range w.runs {
		info := RunInfo{ID: id, Spec: rt.specName}
		if lz := rt.lazy; lz != nil {
			info.Steps, info.Edges = lz.rec.steps, lz.rec.edges
		} else {
			info.Steps, info.Edges = rt.run.NumSteps(), rt.run.NumEdges()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// String renders the statistics on one line.
func (s Stats) String() string {
	return fmt.Sprintf("specs=%d views=%d runs=%d steps=%d flows=%d data=%d cache=%d/%d index[runs=%d steps=%d data=%d csr=%dB closure=%dw]",
		s.Specs, s.Views, s.Runs, s.Steps, s.FlowEdges, s.DataObjects, s.CacheHits, s.CacheMisses,
		s.Index.IndexedRuns, s.Index.InternedSteps, s.Index.InternedData, s.Index.CSRBytes, s.Index.ClosureWords)
}

// DropRun removes a run and its cached closures. Dropping an unknown run
// is an error, so callers notice typos.
func (w *Warehouse) DropRun(id string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.dropRunLocked(id)
}

// dropRunLocked is DropRun under the write lock, which no closure leader
// holds: whatever a leader of the run cached before is swept here, and a
// leader that runs later finds the run no longer served and keeps nothing.
func (w *Warehouse) dropRunLocked(id string) error {
	rt, ok := w.runs[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRun, id)
	}
	delete(w.runs, id)
	if rt.run != nil {
		w.cache.dropRun(rt.run)
	}
	return nil
}
