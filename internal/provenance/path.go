package provenance

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/warehouse"
)

// Why-provenance: beyond "everything upstream", users ask *how* a
// particular input influenced a result. DerivationPath answers with one
// shortest chain of visible composite executions and data objects from a
// source data object to a target, through the given view.

// PathElement is one hop of a derivation path: a data object and the
// execution that consumed it on the way to the target ("" for the final
// element).
type PathElement struct {
	Data string
	Exec string
}

// DerivationPath returns a shortest derivation chain from one data object
// to another under the view, or nil when the source does not influence the
// target. The path alternates data and executions, starting at from and
// ending at to.
func (e *Engine) DerivationPath(runID string, v *core.UserView, from, to string) ([]PathElement, error) {
	m, err := e.mappingFor(nil, runID, v)
	if err != nil {
		return nil, err
	}
	r := m.Run()
	for _, d := range []string{from, to} {
		if !r.HasData(d) {
			return nil, fmt.Errorf("%w: %q in run %q", warehouse.ErrUnknownData, d, runID)
		}
	}
	if from == to {
		return []PathElement{{Data: from}}, nil
	}
	// BFS over the visible dataflow: a data object d advances to every
	// data object produced by an execution that consumed d. Keys are data
	// ids; prev records (data, exec) predecessors for path reconstruction.
	type hop struct {
		data, exec string
	}
	prev := map[string]hop{from: {}}
	queue := []string{from}
	for len(queue) > 0 && prev[to].data == "" && to != from {
		d := queue[0]
		queue = queue[1:]
		execIDs := map[string]bool{}
		for _, c := range r.Consumers(d) {
			if id, ok := m.ExecutionOf(c); ok {
				execIDs[id] = true
			}
		}
		for id := range execIDs {
			ex, _ := m.Execution(id)
			// Only count consumption that enters the execution from
			// outside (visible flow); data internal to the execution is
			// not a visible hop, but its outputs still carry influence.
			for _, out := range ex.Outputs {
				if _, seen := prev[out]; !seen {
					prev[out] = hop{data: d, exec: id}
					queue = append(queue, out)
				}
			}
		}
	}
	if _, ok := prev[to]; !ok {
		return nil, nil
	}
	// Reconstruct back from the target.
	var rev []PathElement
	cur := to
	for cur != from {
		h := prev[cur]
		rev = append(rev, PathElement{Data: cur, Exec: h.exec})
		cur = h.data
	}
	out := make([]PathElement, 0, len(rev)+1)
	out = append(out, PathElement{Data: from, Exec: rev[len(rev)-1].Exec})
	for i := len(rev) - 1; i >= 0; i-- {
		el := PathElement{Data: rev[i].Data}
		if i > 0 {
			el.Exec = rev[i-1].Exec
		}
		out = append(out, el)
	}
	return out, nil
}

// FormatPath renders a derivation path as d1 -[S1]-> d2 -[M3@1]-> d3.
func FormatPath(path []PathElement) string {
	if len(path) == 0 {
		return "(no derivation path)"
	}
	out := path[0].Data
	for i := 0; i < len(path); i++ {
		if path[i].Exec == "" {
			continue
		}
		next := ""
		if i+1 < len(path) {
			next = path[i+1].Data
		}
		out += " -[" + path[i].Exec + "]-> " + next
	}
	return out
}
