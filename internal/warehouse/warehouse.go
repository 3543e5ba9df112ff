// Package warehouse is the provenance warehouse of the ZOOM architecture
// (Section IV, Figure 8). The paper stores specifications, user-view
// definitions, and per-run step/data information in an Oracle 10g database
// and answers deep-provenance queries with recursive SQL (CONNECT BY)
// extended by stored procedures; this package is the embedded pure-Go
// equivalent: typed relational tables with hash indexes, a closure operator
// over interned ids, and the temporary-table cache that makes switching
// user views on an already-queried run nearly free (the paper measures
// ~13 ms for a switch versus up to seconds for the first query).
//
// The warehouse is a concurrent query-serving layer. Loads take the write
// lock, queries the read lock, and the closure cache is one LRU with a
// per-key singleflight so many goroutines can answer deep-provenance
// queries at once without duplicating work (see memo.go for the full
// protocol).
package warehouse

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/wflog"
)

// Errors reported by the warehouse.
var (
	ErrUnknownSpec = errors.New("warehouse: unknown specification")
	ErrUnknownRun  = errors.New("warehouse: unknown run")
	ErrUnknownView = errors.New("warehouse: unknown view")
	ErrUnknownData = errors.New("warehouse: unknown data object")
	ErrDuplicate   = errors.New("warehouse: duplicate identifier")
	// ErrClosed is returned by every run-touching operation after Close.
	// A closed warehouse has released its snapshot mapping, so queries
	// must fail cleanly rather than reach into unmapped memory.
	ErrClosed = errors.New("warehouse: closed")
)

// Warehouse holds the provenance tables.
//
// Thread-safety contract: every exported method is safe for concurrent
// use by multiple goroutines. Catalog state (specs, views, runs) is
// guarded by mu; runs are immutable once loaded, so queries may retain
// *run.Run pointers after releasing the lock. The warehouse also owns all
// of a worker's derived state, in three memos whose counters are atomic
// and whose misses are coalesced per key by a singleflight: the UAdmin
// closures (DeepProvenance), the views built from relevant lists
// (ResolveView) and the view mappings (Mapping). Closures and mappings are
// keyed on the run instance and kept only under the read lock while the
// warehouse still serves their run, so DropRun and Close, which sweep both
// under the write lock, leave nothing of a dropped run behind; Invalidate
// and ResetCache only evict closures.
type Warehouse struct {
	mu sync.RWMutex

	specs map[string]*spec.Spec                // spec name -> spec
	views map[string]map[string]*core.UserView // spec name -> view name -> view
	runs  map[string]*runTables                // run id -> per-run tables

	cache    *memo[cacheKey, *Closure]
	viewMemo *memo[viewKey, *core.UserView]
	mappings *memo[mappingKey, *composite.Mapping]

	// snap describes the snapshot this warehouse was opened from (nil for
	// live warehouses and v1 loads): format version, whether the file is
	// memory-mapped, and the mapping to release on Close. closed flips once
	// under the write lock; every reader that could touch mapped memory
	// checks it first.
	snap   *snapshotInfo
	closed bool

	// obs is the attached observability registry with the warehouse's
	// instruments resolved from it (nil when detached — the common case).
	// Published atomically so AttachMetrics is safe against concurrent
	// ingest; see metrics.go.
	obs atomic.Pointer[warehouseMetrics]
}

// runTables is the per-run slice of the relational schema. The run is
// immutable and its index (interned ids, CSR adjacency, flows) is all of
// it; both are dropped together, so DropRun releases the run with its
// cached closures.
type runTables struct {
	specName string
	run      *run.Run

	// lazy, when non-nil, holds a v3 snapshot run that has not necessarily
	// materialized yet: run is populated on first use through lazy.once
	// (resolveLocked), which also publishes the write to every other lock
	// holder. Readers that must not force a build check lazy.done instead.
	lazy *lazyRun
}

// resolveLocked materializes a lazily-opened run if it has not been yet.
// Callers hold w.mu (read or write); the sync.Once inside lazyRun both
// serializes the build among concurrent read-lock holders and gives every
// caller a happens-before edge to the published runTables fields.
func (w *Warehouse) resolveLocked(rt *runTables) error {
	lz := rt.lazy
	if lz == nil {
		return nil
	}
	lz.once.Do(func() { lz.materialize(rt) })
	return lz.err
}

// servedLocked returns the run instance an open warehouse serves under id:
// nil when there is none, or when it is a lazy run not yet materialized.
// Callers hold w.mu.
func (w *Warehouse) servedLocked(id string) *run.Run {
	rt, ok := w.runs[id]
	if !ok || w.closed || (rt.lazy != nil && !rt.lazy.done.Load()) {
		return nil
	}
	return rt.run
}

// tablesLocked returns the tables of a run, materialized: every first touch
// of a lazily-opened run goes through here. Callers hold w.mu.
func (w *Warehouse) tablesLocked(runID string) (*runTables, error) {
	if w.closed {
		return nil, ErrClosed
	}
	rt, ok := w.runs[runID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownRun, runID)
	}
	if err := w.resolveLocked(rt); err != nil {
		return nil, err
	}
	return rt, nil
}

// New returns an empty warehouse that caches exactly cacheSize UAdmin
// closures (the "temporary tables"), evicting the least recently used;
// zero selects the default 1024.
func New(cacheSize int) *Warehouse {
	if cacheSize <= 0 {
		cacheSize = 1024
	}
	return &Warehouse{
		specs:    make(map[string]*spec.Spec),
		views:    make(map[string]map[string]*core.UserView),
		runs:     make(map[string]*runTables),
		cache:    newMemo(cacheSize, "closure", closureBytes),
		viewMemo: newMemo(memoBound, "view", func(viewKey, *core.UserView) int { return 0 }),
		mappings: newMemo(memoBound, "mapping", mappingBytes),
	}
}

// RegisterSpec stores a workflow specification. The specification is
// validated first; duplicate names are rejected.
func (w *Warehouse) RegisterSpec(s *spec.Spec) error {
	if err := s.Validate(); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.specs[s.Name()]; dup {
		return fmt.Errorf("%w: spec %q", ErrDuplicate, s.Name())
	}
	w.specs[s.Name()] = s
	w.views[s.Name()] = make(map[string]*core.UserView)
	return nil
}

// Spec returns a registered specification.
func (w *Warehouse) Spec(name string) (*spec.Spec, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	s, ok := w.specs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSpec, name)
	}
	return s, nil
}

// SpecNames lists registered specifications, sorted.
func (w *Warehouse) SpecNames() []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make([]string, 0, len(w.specs))
	for n := range w.specs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RegisterView stores a named user view for a registered specification.
func (w *Warehouse) RegisterView(name string, v *core.UserView) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	specName := v.Spec().Name()
	vs, ok := w.views[specName]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSpec, specName)
	}
	if _, dup := vs[name]; dup {
		return fmt.Errorf("%w: view %q of %q", ErrDuplicate, name, specName)
	}
	vs[name] = v
	return nil
}

// View returns a registered view of a specification.
func (w *Warehouse) View(specName, viewName string) (*core.UserView, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	vs, ok := w.views[specName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSpec, specName)
	}
	v, ok := vs[viewName]
	if !ok {
		return nil, fmt.Errorf("%w: %q of %q", ErrUnknownView, viewName, specName)
	}
	return v, nil
}

// ViewNames lists the views registered for a specification, sorted.
func (w *Warehouse) ViewNames(specName string) []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	var out []string
	for n := range w.views[specName] {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// LoadRun stores a validated run. Its specification must be registered and
// the run must conform to it.
//
// The expensive part of a load — structural validation, spec conformance,
// and the compact-index build — runs *outside* the catalog lock, so many
// goroutines can ingest runs concurrently (live multi-run ingestion leans
// on this); only the brief catalog insert serializes. Duplicate ids are re-checked under the write lock, so
// two racing loads of the same id still resolve to exactly one winner.
func (w *Warehouse) LoadRun(r *run.Run) error {
	w.mu.RLock()
	closed := w.closed
	s, ok := w.specs[r.SpecName()]
	_, dup := w.runs[r.ID()]
	w.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSpec, r.SpecName())
	}
	if dup {
		return fmt.Errorf("%w: run %q", ErrDuplicate, r.ID())
	}
	if err := r.Validate(); err != nil {
		return err
	}
	if err := r.ConformsTo(s); err != nil {
		return err
	}
	rt := &runTables{specName: r.SpecName(), run: r}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if _, dup := w.runs[r.ID()]; dup {
		return fmt.Errorf("%w: run %q", ErrDuplicate, r.ID())
	}
	w.runs[r.ID()] = rt
	w.observeRunLoaded()
	return nil
}

// LoadLog ingests an event log, reconstructing the run it describes — the
// paper's "extractor" that populates the warehouse from workflow-system
// logs during or after execution.
func (w *Warehouse) LoadLog(runID, specName string, events []wflog.Event) error {
	r, err := run.FromLog(runID, specName, events)
	if err != nil {
		return err
	}
	return w.LoadRun(r)
}

// LoadLogReader streams a JSON-lines workflow log from src into run
// construction, one event at a time — no []Event slice is ever
// materialized, so log size is bounded by the run it describes, not by the
// event count. The run only becomes visible to queries after the whole
// stream has validated and loaded, exactly like LoadLog. An event the
// loader rejects is reported under its log line, "wflog: line N: ...", as
// the decoder reports a line it cannot parse. It returns the number of
// events ingested.
func (w *Warehouse) LoadLogReader(runID, specName string, src io.Reader) (int, error) {
	start := w.metricsTime()
	dec := wflog.NewDecoder(src)
	l := run.NewLogLoader(runID, specName)
	for dec.Next() {
		if err := l.Add(dec.Event()); err != nil {
			return l.NumEvents(), fmt.Errorf("wflog: line %d: %w", dec.Line(), err)
		}
	}
	if err := dec.Err(); err != nil {
		return l.NumEvents(), err
	}
	r, err := l.Finish()
	if err != nil {
		return l.NumEvents(), err
	}
	if err := w.LoadRun(r); err != nil {
		return l.NumEvents(), err
	}
	w.observeLogIngest(l.NumEvents(), start)
	return l.NumEvents(), nil
}

// Run returns a loaded run, materializing it first when the warehouse was
// opened from a v3 snapshot.
func (w *Warehouse) Run(id string) (*run.Run, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	rt, err := w.tablesLocked(id)
	if err != nil {
		return nil, err
	}
	return rt.run, nil
}

// Close releases the resources behind a snapshot-opened warehouse — in
// particular the memory mapping a v3 open holds, after which none of the
// mapping-backed index slices may be touched again. Every subsequent
// run-touching operation returns ErrClosed; callers must drain in-flight
// queries first (Close takes the write lock, so it cannot overlap one).
// Closing a live warehouse just marks it closed. Close is idempotent.
func (w *Warehouse) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	// Closures and mappings hold index pointers, whose arrays a v3 open
	// aliases into the mapping: drop them with it.
	w.cache.reset()
	w.mappings.reset()
	if w.snap != nil && w.snap.src != nil {
		return w.snap.src.Close()
	}
	return nil
}

// RunIDs lists loaded runs, sorted.
func (w *Warehouse) RunIDs() []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make([]string, 0, len(w.runs))
	for id := range w.runs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// NumRuns returns the number of loaded runs.
func (w *Warehouse) NumRuns() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.runs)
}

// CacheCounters snapshots every closure-cache counter, including the
// singleflight and eviction counters the concurrency experiments report.
func (w *Warehouse) CacheCounters() CacheCounters {
	return w.cache.Counters()
}

// Invalidate evicts the cached closure of one (run, data) key, so the next
// query recomputes it (benchmarks use it to time cold queries). A closure
// never goes stale — its run cannot change — so a computation in flight
// for the key may still cache its result.
func (w *Warehouse) Invalidate(runID, d string) {
	w.mu.RLock()
	r := w.servedLocked(runID)
	w.mu.RUnlock()
	if r != nil {
		w.cache.invalidate(cacheKey{r, d})
	}
}

// ResetCache drops all cached closures and zeroes the cache counters (used
// by benchmarks to separate the cold and warm paths). Like Invalidate it
// only evicts: a computation in flight may still cache its result.
func (w *Warehouse) ResetCache() {
	w.cache.reset()
}
