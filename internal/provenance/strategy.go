package provenance

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/warehouse"
)

// This file implements the alternative evaluation strategy the paper tried
// and rejected ("We tested various strategies to implement the computation
// of deep provenance through user views"): recursing directly over the
// composite-execution graph of the requested view instead of computing the
// UAdmin closure first. It is kept as an ablation target — benchmarks
// compare it against the projected strategy — and as a semantic contrast:
// because a multi-step composite execution is traversed as a unit, the
// direct strategy pulls in *every* input of a visited execution, so on
// views with large composites it may over-approximate the precise
// derivation that UAdmin-then-project reports. (On UAdmin itself the two
// strategies coincide; the property tests pin this down.)

// DeepProvenanceDirect answers the deep-provenance query by recursive
// traversal at the granularity of the view's composite executions, without
// consulting or populating the UAdmin closure cache.
func (e *Engine) DeepProvenanceDirect(runID string, v *core.UserView, d string) (*Result, error) {
	m, err := e.mappingFor(nil, runID, v)
	if err != nil {
		return nil, err
	}
	px := m.Projector()
	a, rootID := newAnswer(px, d)
	if rootID < 0 {
		return nil, fmt.Errorf("%w: %q in run %q", warehouse.ErrUnknownData, d, runID)
	}
	// Breadth-first over execution ordinals, each visited execution pulling
	// in every one of its inputs; then the same emission the projected
	// strategy uses, with every input of a visited execution in the data set.
	visible := bitset.New(px.NumExecutions())
	if start := px.ProducerExec(rootID); start >= 0 {
		visible.Add(start)
		for queue := []int32{start}; len(queue) > 0; queue = queue[1:] {
			for _, in := range px.InputsOf(queue[0]) {
				if p := px.ProducerExec(in); p >= 0 && !visible.Has(p) {
					visible.Add(p)
					queue = append(queue, p)
				}
			}
		}
	}
	projectVisible(a, rootID, visible, nil, nil)
	return a.Result(), nil
}
