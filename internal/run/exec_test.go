package run

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/spec"
	"repro/internal/wflog"
)

func TestExecutePhylogenomics(t *testing.T) {
	s := spec.Phylogenomics()
	r, events, err := Execute(s, Config{RunID: "t1", Seed: 7, LoopIter: [2]int{2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := r.ConformsTo(s); err != nil {
		t.Fatal(err)
	}
	if err := wflog.ValidateSequence(events); err != nil {
		t.Fatal(err)
	}
	// Two iterations: M3 and M4 run twice, M5 once (the final iteration
	// exits through M4, exactly like Figure 2).
	if got := len(r.StepsOfModule("M3")); got != 2 {
		t.Fatalf("M3 ran %d times, want 2", got)
	}
	if got := len(r.StepsOfModule("M4")); got != 2 {
		t.Fatalf("M4 ran %d times, want 2", got)
	}
	if got := len(r.StepsOfModule("M5")); got != 1 {
		t.Fatalf("M5 ran %d times, want 1", got)
	}
	// 10 steps total, same as Figure 2.
	if r.NumSteps() != 10 {
		t.Fatalf("NumSteps = %d, want 10", r.NumSteps())
	}
	if len(r.FinalOutputs()) == 0 {
		t.Fatal("no final outputs")
	}
}

func TestExecuteSingleIteration(t *testing.T) {
	s := spec.Phylogenomics()
	r, _, err := Execute(s, Config{Seed: 1, LoopIter: [2]int{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	// One iteration: M5 (no path to an exit inside the body) never runs.
	if got := len(r.StepsOfModule("M5")); got != 0 {
		t.Fatalf("M5 ran %d times, want 0 in a single-iteration run", got)
	}
	if got := len(r.StepsOfModule("M3")); got != 1 {
		t.Fatalf("M3 ran %d times, want 1", got)
	}
	if r.NumSteps() != 7 {
		t.Fatalf("NumSteps = %d, want 7", r.NumSteps())
	}
}

func TestExecuteDeterministic(t *testing.T) {
	s := spec.Phylogenomics()
	a, ea, err := Execute(s, Config{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	b, eb, err := Execute(s, Config{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ea, eb) {
		t.Fatal("same seed produced different logs")
	}
	if a.NumSteps() != b.NumSteps() || a.NumData() != b.NumData() {
		t.Fatal("same seed produced different runs")
	}
	c, _, err := Execute(s, Config{Seed: 100, LoopIter: [2]int{1, 9}, UserInput: [2]int{1, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumData() == a.NumData() && c.NumSteps() == a.NumSteps() {
		t.Log("different seed produced identical-size run (possible but unlikely)")
	}
}

func TestExecuteLoopScaling(t *testing.T) {
	s := spec.Phylogenomics()
	r, _, err := Execute(s, Config{Seed: 3, LoopIter: [2]int{10, 10}})
	if err != nil {
		t.Fatal(err)
	}
	// 10 iterations: M3, M4 ten times; M5 nine times (not in final).
	if got := len(r.StepsOfModule("M3")); got != 10 {
		t.Fatalf("M3 ran %d times, want 10", got)
	}
	if got := len(r.StepsOfModule("M5")); got != 9 {
		t.Fatalf("M5 ran %d times, want 9", got)
	}
	if err := r.ConformsTo(s); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteMaxStepsClamp(t *testing.T) {
	s := spec.Phylogenomics()
	r, _, err := Execute(s, Config{Seed: 3, LoopIter: [2]int{1000, 1000}, MaxSteps: 50})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumSteps() > 60 { // small slack: clamp is approximate
		t.Fatalf("NumSteps = %d exceeds clamp", r.NumSteps())
	}
}

func TestExecuteSelfLoop(t *testing.T) {
	s := spec.New("selfloop")
	s.MustAddModule(spec.Module{Name: "A"})
	s.MustAddModule(spec.Module{Name: "B"})
	s.MustAddEdge(spec.Input, "A")
	s.MustAddEdge("A", "A")
	s.MustAddEdge("A", "B")
	s.MustAddEdge("B", spec.Output)
	r, _, err := Execute(s, Config{Seed: 5, LoopIter: [2]int{3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.StepsOfModule("A")); got != 3 {
		t.Fatalf("A ran %d times, want 3", got)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := r.ConformsTo(s); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteRejectsOverlappingLoops(t *testing.T) {
	s := spec.New("overlap")
	for _, m := range []string{"A", "B", "C"} {
		s.MustAddModule(spec.Module{Name: m})
	}
	s.MustAddEdge(spec.Input, "A")
	s.MustAddEdge("A", "B")
	s.MustAddEdge("B", "A") // loop 1 over {A, B}
	s.MustAddEdge("B", "C")
	s.MustAddEdge("C", "B") // loop 2 over {B, C}: shares B
	s.MustAddEdge("C", spec.Output)
	_, _, err := Execute(s, Config{Seed: 1, LoopIter: [2]int{2, 2}})
	if !errors.Is(err, ErrUnsupportedLoops) {
		t.Fatalf("err = %v, want ErrUnsupportedLoops", err)
	}
}

func TestExecuteInvalidSpecRejected(t *testing.T) {
	s := spec.New("bad")
	s.MustAddModule(spec.Module{Name: "A"})
	s.MustAddEdge(spec.Input, "A")
	if _, _, err := Execute(s, Config{Seed: 1}); err == nil {
		t.Fatal("invalid spec executed")
	}
}

func TestExecuteEveryEdgeCarriesData(t *testing.T) {
	s := spec.Phylogenomics()
	r, _, err := Execute(s, Config{Seed: 11, LoopIter: [2]int{3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range r.Flows() {
		if len(r.DataOn(f.From, f.To)) == 0 {
			t.Errorf("edge %s -> %s carries no data", f.From, f.To)
		}
	}
}

func TestExecuteLogMatchesRun(t *testing.T) {
	// Reconstructing the run from the emitted log must reproduce it.
	s := spec.Phylogenomics()
	r, events, err := Execute(s, Config{RunID: "orig", Seed: 21, LoopIter: [2]int{2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromLog("orig", s.Name(), events)
	if err != nil {
		t.Fatal(err)
	}
	assertRunsEquivalent(t, r, back)
}

func TestSizeEstimate(t *testing.T) {
	s := spec.Phylogenomics()
	if got := SizeEstimate(s, 1); got != 8 {
		t.Fatalf("SizeEstimate(1) = %d, want 8", got)
	}
	if got := SizeEstimate(s, 5); got != 8+4*3 {
		t.Fatalf("SizeEstimate(5) = %d, want 20", got)
	}
}

// assertRunsEquivalent compares two runs on everything provenance cares
// about: steps, producers, and per-step input/output sets.
func assertRunsEquivalent(t *testing.T, a, b *Run) {
	t.Helper()
	if !reflect.DeepEqual(a.Steps(), b.Steps()) {
		t.Fatalf("steps differ:\n%v\n%v", a.Steps(), b.Steps())
	}
	if !reflect.DeepEqual(a.AllData(), b.AllData()) {
		t.Fatalf("data differ: %d vs %d objects", a.NumData(), b.NumData())
	}
	for _, d := range a.AllData() {
		pa, _ := a.Producer(d)
		pb, _ := b.Producer(d)
		if pa != pb {
			t.Fatalf("producer of %s: %q vs %q", d, pa, pb)
		}
	}
	for _, st := range a.Steps() {
		if !reflect.DeepEqual(a.InputsOf(st.ID), b.InputsOf(st.ID)) {
			t.Fatalf("inputs of %s differ: %v vs %v", st.ID, a.InputsOf(st.ID), b.InputsOf(st.ID))
		}
		if !reflect.DeepEqual(a.OutputsOf(st.ID), b.OutputsOf(st.ID)) {
			t.Fatalf("outputs of %s differ", st.ID)
		}
	}
}
