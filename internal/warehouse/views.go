package warehouse

import (
	"slices"
	"strconv"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/spec"
)

// viewKey names a view built on request: the specification and its
// relevant set, canonical (see ResolveView). The empty set is UAdmin.
type viewKey struct {
	spec     *spec.Spec
	relevant string
}

// mappingKey names a mapping: the run instance and the view.
type mappingKey struct {
	r *run.Run
	v *core.UserView
}

// memoBound is the capacity of the view memo and of the mapping memo, the
// two a view switch reads beside the closures. A server that builds views
// from request-supplied relevant lists mints new keys without end; past the
// bound the least recently used entry makes room. A rebuilt view or mapping
// costs a fraction of a millisecond, well under one cold query.
const memoBound = 1024

// mappingBytes is what one memoized mapping holds beyond the memo's own
// overhead: its projector. The run and the view belong to the warehouse.
func mappingBytes(_ mappingKey, m *composite.Mapping) int { return m.Projector().Bytes() }

// ResolveView resolves a query's choice of view over the specification of
// run runID: the view registered under name when name is non-empty,
// otherwise the view the relevant modules induce (core.BuildRelevant), or
// UAdmin when relevant is empty too. Built views are memoized per
// (specification, relevant set): the set is sorted and deduplicated first,
// so every spelling of one set gets the same *core.UserView — and so meets
// the same memoized mappings. An invalid set's error is not memoized:
// asking again builds again.
func (w *Warehouse) ResolveView(runID, name string, relevant []string) (*core.UserView, error) {
	r, err := w.Run(runID)
	if err != nil {
		return nil, err
	}
	if name != "" {
		return w.View(r.SpecName(), name)
	}
	sp, err := w.Spec(r.SpecName())
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
	v, _, err := w.viewMemo.Get(nil, viewKey{sp, string(key)}, func(keep func(*core.UserView)) (*core.UserView, error) {
		if len(set) == 0 {
			v := core.UAdmin(sp)
			keep(v)
			return v, nil
		}
		v, err := core.BuildRelevant(sp, set)
		if err == nil {
			keep(v)
		}
		return v, err
	})
	return v, err
}

// Mapping returns the composite-execution mapping of a resolved run under a
// view (composite.Build), memoized. Mappings depend only on (run, view),
// not on the queried data, so they are shared across queries and built
// exactly once per key. The key is the run instance, and a mapping is kept
// by the rule that keeps a closure: under the read lock, only while the
// warehouse still serves r. A mapping of a run dropped since the caller
// resolved it is built and returned but not kept, so DropRun and Close,
// which sweep under the write lock, leave none behind. A build under a
// traced parent span records "mapping.compute" beneath it.
func (w *Warehouse) Mapping(parent *obs.Span, r *run.Run, v *core.UserView) (*composite.Mapping, error) {
	m, _, err := w.mappings.Get(parent, mappingKey{r, v}, func(keep func(*composite.Mapping)) (*composite.Mapping, error) {
		w.mu.RLock()
		defer w.mu.RUnlock()
		if w.closed {
			return nil, ErrClosed
		}
		m, err := composite.Build(r, v)
		if err == nil && w.servedLocked(r.ID()) == r {
			keep(m)
		}
		return m, err
	})
	return m, err
}
