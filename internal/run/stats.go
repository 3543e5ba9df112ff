package run

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
	ix := r.ix
	st := Stats{Steps: ix.NumSteps(), Data: ix.NumData()}
	// Degrees are flows per node code: there is one flow per connected pair.
	out := make([]int, NodeStep0+ix.NumSteps())
	in := make([]int, len(out))
	ix.EachFlow(func(from, to int32, _ []int32) {
		st.Edges++
		out[from]++
		in[to]++
	})
	for c := NodeStep0; c < len(out); c++ {
		st.MaxFanOut = max(st.MaxFanOut, out[c])
		st.MaxFanIn = max(st.MaxFanIn, in[c])
	}
	for d, p := range ix.t.Producer {
		if p < 0 {
			st.ExternalInputs++
		}
		if ix.IsFinal(int32(d)) {
			st.FinalOutputs++
		}
	}
	order := ix.TopoOrder()
	if len(order) != ix.NumSteps() {
		return st
	}
	// Longest path in steps: depth[s] is the most steps on a path ending at
	// s, settled before s is reached in topological order.
	depth := make([]int, ix.NumSteps())
	for _, s := range order {
		depth[s]++
		for _, d := range ix.OutputsOf(s) {
			if ix.IsFinal(d) {
				st.Depth = max(st.Depth, depth[s])
			}
			for _, t := range ix.ConsumersOf(d) {
				depth[t] = max(depth[t], depth[s])
			}
		}
	}
	return st
}
