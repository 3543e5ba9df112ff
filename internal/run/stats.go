package run

import "repro/internal/spec"

// Stats summarizes a run's shape: the quantities Table II controls (size,
// data volume) plus the structural ones (depth, fan-out) that determine
// how hard the run is to display and traverse.
type Stats struct {
	Steps          int
	Edges          int
	Data           int
	ExternalInputs int
	FinalOutputs   int
	// Depth is the number of steps on the longest INPUT-to-OUTPUT path.
	Depth int
	// MaxFanOut is the largest out-degree over steps (parallel splits).
	MaxFanOut int
	// MaxFanIn is the largest in-degree over steps (synchronizations).
	MaxFanIn int
}

// Stats computes the run statistics. The run must be acyclic (guaranteed
// for validated runs); on a cyclic graph depth is reported as zero.
func (r *Run) Stats() Stats {
	r.strings()
	st := Stats{
		Steps:          r.NumSteps(),
		Edges:          r.NumEdges(),
		Data:           r.NumData(),
		ExternalInputs: len(r.ExternalInputs()),
		FinalOutputs:   len(r.FinalOutputs()),
	}
	for id := range r.steps {
		if d := r.g.OutDegree(id); d > st.MaxFanOut {
			st.MaxFanOut = d
		}
		if d := r.g.InDegree(id); d > st.MaxFanIn {
			st.MaxFanIn = d
		}
	}
	order, err := r.g.TopoSort()
	if err != nil {
		return st
	}
	// Longest path in steps, via DP over the topological order.
	depth := make(map[string]int, len(order))
	for _, n := range order {
		base := depth[n]
		add := 0
		if _, isStep := r.steps[n]; isStep {
			add = 1
		}
		for _, succ := range r.g.Successors(n) {
			if base+add > depth[succ] {
				depth[succ] = base + add
			}
		}
	}
	st.Depth = depth[spec.Output]
	return st
}
