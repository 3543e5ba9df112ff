package warehouse

import (
	"fmt"

	"repro/internal/core"
)

// Subset returns a new warehouse holding only the runs keep selects,
// together with every specification and named view of the parent (they
// are tiny, and each shard of a cluster needs the full catalog of specs
// and views to answer view queries over its runs). It is the resharding
// primitive behind `zoom snapshot shard`: split a warehouse by the
// consistent-hash ring, save each subset, and each file is a complete,
// self-contained shard snapshot.
//
// The subset shares the parent's immutable per-run storage (runs, compact
// indexes) instead of rebuilding it, so splitting is proportional to
// catalog size, not graph size. For a parent opened from
// a v3 (mmap) snapshot that storage aliases the mapping: use or save the
// subset before closing the parent. Lazily-opened runs that keep selects
// are materialized here; runs it rejects are never touched, so splitting
// a v3 snapshot N ways still only materializes each run once overall.
func (w *Warehouse) Subset(keep func(runID string) bool) (*Warehouse, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if w.closed {
		return nil, ErrClosed
	}
	nw := New(0)
	for name, s := range w.specs {
		nw.specs[name] = s
		views := make(map[string]*core.UserView, len(w.views[name]))
		for vn, v := range w.views[name] {
			views[vn] = v
		}
		nw.views[name] = views
	}
	for id, rt := range w.runs {
		if !keep(id) {
			continue
		}
		if err := w.resolveLocked(rt); err != nil {
			return nil, fmt.Errorf("warehouse: subset run %q: %w", id, err)
		}
		nw.runs[id] = &runTables{specName: rt.specName, run: rt.run}
	}
	return nw, nil
}
