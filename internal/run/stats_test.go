package run

import (
	"testing"

	"repro/internal/spec"
)

func TestStatsFigure2(t *testing.T) {
	st := Figure2().Stats()
	if st.Steps != 10 || st.Edges != 13 || st.Data != 246 {
		t.Fatalf("basic counts wrong: %+v", st)
	}
	if st.ExternalInputs != 131 || st.FinalOutputs != 1 {
		t.Fatalf("boundary counts wrong: %+v", st)
	}
	// Longest path: S1 -> S2 -> S3 -> S4 -> S5 -> S6 -> S10 = 7 steps.
	if st.Depth != 7 {
		t.Fatalf("Depth = %d, want 7", st.Depth)
	}
	// S1 fans out to S2 and S7; S10 joins three inputs.
	if st.MaxFanOut != 2 {
		t.Fatalf("MaxFanOut = %d, want 2", st.MaxFanOut)
	}
	if st.MaxFanIn != 3 {
		t.Fatalf("MaxFanIn = %d, want 3", st.MaxFanIn)
	}
}

func TestStatsLinearRun(t *testing.T) {
	b := NewBuilder("lin", "s")
	mustT(t, b.AddStep("S1", "A"))
	mustT(t, b.AddStep("S2", "B"))
	mustT(t, b.AddFlow(spec.Input, "S1", []string{"d1"}))
	mustT(t, b.AddFlow("S1", "S2", []string{"d2"}))
	mustT(t, b.AddFlow("S2", spec.Output, []string{"d3"}))
	st := mustBuild(t, b).Stats()
	if st.Depth != 2 || st.MaxFanOut != 1 || st.MaxFanIn != 1 {
		t.Fatalf("linear stats wrong: %+v", st)
	}
}

func TestStatsScalesWithIterations(t *testing.T) {
	s := spec.Phylogenomics()
	small, _, err := Execute(s, Config{Seed: 1, LoopIter: [2]int{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	big, _, err := Execute(s, Config{Seed: 1, LoopIter: [2]int{8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if small.Stats().Depth >= big.Stats().Depth {
		t.Fatalf("loop unrolling did not deepen the run: %d vs %d",
			small.Stats().Depth, big.Stats().Depth)
	}
}
