package run

import (
	"fmt"
	"sort"

	"repro/internal/spec"
)

// Flow is one dataflow edge of a run in table form: the data objects that
// passed from one node to another. It is the row type snapshot loaders feed
// to Reconstruct.
type Flow struct {
	From string
	To   string
	Data []string
}

// Reconstruct bulk-builds a run from its relational tables — the warehouse
// snapshot loader's fast path. It enforces exactly the invariants AddStep
// and AddFlow enforce (unique steps, known endpoints, single producer per
// data object, non-empty data on every edge), but skips the per-edge
// merge-and-sort work AddFlow pays to keep the run consistent under
// arbitrary interactive mutation:
//
//   - a flow whose data is already in natural order (which every snapshot
//     written by Save is) is installed without copying or re-sorting;
//   - consumer lists are accumulated by append and sorted once at the end,
//     instead of sorted-insert per (data, step) pair.
//
// Input that violates the sortedness assumption (a hand-edited snapshot) is
// normalized through the same merge path AddFlow uses, so Reconstruct never
// trusts its input with correctness — only with performance.
func Reconstruct(id, specName string, steps []Step, flows []Flow, meta map[string]map[string]string) (*Run, error) {
	r := NewRun(id, specName)
	for _, st := range steps {
		if err := r.AddStep(st.ID, st.Module); err != nil {
			return nil, err
		}
	}
	for _, f := range flows {
		if err := r.addFlowBulk(f.From, f.To, f.Data); err != nil {
			return nil, err
		}
	}
	// Consumer lists were appended in flow order; sort and deduplicate each
	// once, restoring AddFlow's sorted-unique invariant.
	for d, cs := range r.consumers {
		sort.Strings(cs)
		out := cs[:0]
		for i, s := range cs {
			if i == 0 || s != out[len(out)-1] {
				out = append(out, s)
			}
		}
		r.consumers[d] = out
	}
	for d, m := range meta {
		if err := r.AnnotateInput(d, m); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// addFlowBulk is AddFlow minus the per-edge normalization cost; see
// Reconstruct for the contract.
func (r *Run) addFlowBulk(from, to string, data []string) error {
	if from == spec.Output || to == spec.Input {
		return fmt.Errorf("%w: direction %s -> %s", ErrBadFlow, from, to)
	}
	if from == to {
		return fmt.Errorf("%w: self flow on %s", ErrBadFlow, from)
	}
	if len(data) == 0 {
		return fmt.Errorf("%w: edge %s -> %s carries no data", ErrBadFlow, from, to)
	}
	r.own()
	for _, end := range []string{from, to} {
		if end == spec.Input || end == spec.Output {
			continue
		}
		if _, ok := r.steps[end]; !ok {
			return fmt.Errorf("%w: unknown step %q", ErrBadFlow, end)
		}
	}
	producer := ""
	if from != spec.Input {
		producer = from
	}
	for _, d := range data {
		if d == "" {
			return fmt.Errorf("%w: empty data id on %s -> %s", ErrBadFlow, from, to)
		}
		if prev, seen := r.producer[d]; seen {
			if prev != producer {
				return fmt.Errorf("%w: %q produced by %q and %q", ErrTwoProducers, d, prev, producer)
			}
		} else {
			r.producer[d] = producer
		}
	}
	key := [2]string{from, to}
	switch existing := r.edgeData[key]; {
	case existing == nil && sortedUniqueNatural(data):
		r.edgeData[key] = data
	default:
		// Duplicate edge or unsorted data: fall back to the merge path.
		r.edgeData[key] = mergeDataIDs(existing, data)
	}
	r.g.AddEdge(from, to)
	if to != spec.Output {
		for _, d := range data {
			r.consumers[d] = append(r.consumers[d], to)
		}
	}
	return nil
}

// sortedUniqueNatural reports whether xs is strictly increasing under the
// natural order — the form AddFlow and Save maintain.
func sortedUniqueNatural(xs []string) bool {
	for i := 1; i < len(xs); i++ {
		if !lessNatural(xs[i-1], xs[i]) {
			return false
		}
	}
	return true
}
