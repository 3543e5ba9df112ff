package spec

import (
	"errors"
	"reflect"
	"testing"
)

func TestAddModuleValidation(t *testing.T) {
	s := New("t")
	if err := s.AddModule(Module{Name: ""}); !errors.Is(err, ErrBadModule) {
		t.Fatalf("empty name: err = %v", err)
	}
	if err := s.AddModule(Module{Name: Input}); !errors.Is(err, ErrBadModule) {
		t.Fatalf("reserved name: err = %v", err)
	}
	if err := s.AddModule(Module{Name: "A"}); err != nil {
		t.Fatalf("valid module rejected: %v", err)
	}
	if err := s.AddModule(Module{Name: "A"}); !errors.Is(err, ErrBadModule) {
		t.Fatalf("duplicate: err = %v", err)
	}
	m, ok := s.Module("A")
	if !ok || m.Kind != KindScientific {
		t.Fatalf("default kind not applied: %+v ok=%v", m, ok)
	}
}

func TestAddEdgeValidation(t *testing.T) {
	s := New("t")
	s.MustAddModule(Module{Name: "A"})
	if err := s.AddEdge("A", Input); !errors.Is(err, ErrBadEdge) {
		t.Fatalf("edge into INPUT: err = %v", err)
	}
	if err := s.AddEdge(Output, "A"); !errors.Is(err, ErrBadEdge) {
		t.Fatalf("edge out of OUTPUT: err = %v", err)
	}
	if err := s.AddEdge("A", "ghost"); !errors.Is(err, ErrBadEdge) {
		t.Fatalf("unknown module: err = %v", err)
	}
	if err := s.AddEdge(Input, "A"); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := s.AddEdge("A", Output); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
}

func TestValidateConnectivity(t *testing.T) {
	s := New("t")
	s.MustAddModule(Module{Name: "A"})
	s.MustAddModule(Module{Name: "B"})
	s.MustAddEdge(Input, "A")
	s.MustAddEdge("A", Output)
	if err := s.Validate(); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("dangling module B: err = %v", err)
	}
	s.MustAddEdge(Input, "B")
	if err := s.Validate(); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("B cannot reach output: err = %v", err)
	}
	s.MustAddEdge("B", Output)
	if err := s.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestValidateEmpty(t *testing.T) {
	s := New("empty")
	if err := s.Validate(); !errors.Is(err, ErrNoOutputPath) {
		t.Fatalf("empty spec: err = %v", err)
	}
	s.MustAddEdge(Input, Output)
	if err := s.Validate(); err != nil {
		t.Fatalf("trivial INPUT->OUTPUT spec rejected: %v", err)
	}
}

func TestValidateNoOutputPath(t *testing.T) {
	s := New("t")
	s.MustAddModule(Module{Name: "A"})
	s.MustAddEdge(Input, "A")
	if err := s.Validate(); !errors.Is(err, ErrNoOutputPath) {
		t.Fatalf("unreachable OUTPUT: err = %v", err)
	}
}

func TestPhylogenomicsShape(t *testing.T) {
	s := Phylogenomics()
	if err := s.Validate(); err != nil {
		t.Fatalf("Figure 1 spec invalid: %v", err)
	}
	if got := s.NumModules(); got != 8 {
		t.Fatalf("NumModules = %d, want 8", got)
	}
	if s.IsAcyclic() {
		t.Fatal("Figure 1 contains the M3-M4-M5 loop; spec must be cyclic")
	}
	if got := s.LoopCount(); got != 1 {
		t.Fatalf("LoopCount = %d, want 1", got)
	}
	// The loop: M3 -> M4 -> M5 -> M3.
	for _, e := range [][2]string{{"M3", "M4"}, {"M4", "M5"}, {"M5", "M3"}} {
		if !s.Graph().HasEdge(e[0], e[1]) {
			t.Fatalf("missing loop edge %v", e)
		}
	}
	if got := s.ScientificModules(); !reflect.DeepEqual(got, []string{"M3", "M7"}) {
		t.Fatalf("ScientificModules = %v", got)
	}
	if got := s.Successors("M4"); !reflect.DeepEqual(got, []string{"M5", "M7"}) {
		t.Fatalf("Successors(M4) = %v", got)
	}
	if got := s.Predecessors("M7"); !reflect.DeepEqual(got, []string{"M4", "M6", "M8"}) {
		t.Fatalf("Predecessors(M7) = %v", got)
	}
}

func TestFigure6Statements(t *testing.T) {
	// Verify the fixture reproduces every rpred/rsucc fact the paper states.
	s, relevant := Figure6()
	if err := s.Validate(); err != nil {
		t.Fatalf("Figure 6 invalid: %v", err)
	}
	rel := make(map[string]bool)
	for _, r := range relevant {
		rel[r] = true
	}
	avoid := func(n string) bool { return rel[n] }
	g := s.Graph()

	nrPath := func(from, to string) bool { return g.HasPathAvoiding(from, to, avoid) }

	// "there exists an nr-path from input to M2, but not from input to M7"
	// is stated for Figure 1; for Figure 6 the paper states:
	if !nrPath(Input, "M3") {
		t.Fatal("input must nr-reach M3 (via M1/M2/M4/M5)")
	}
	// rpred(M4) = rpred(M5) = {input}
	for _, n := range []string{"M4", "M5"} {
		if !nrPath(Input, n) || nrPath("M3", n) || nrPath("M6", n) {
			t.Fatalf("rpred(%s) != {input}", n)
		}
	}
	// rsucc(M4) = rsucc(M5) = {M3, output}
	for _, n := range []string{"M4", "M5"} {
		if !nrPath(n, "M3") || !nrPath(n, Output) {
			t.Fatalf("rsucc(%s) missing M3/output", n)
		}
		if nrPath(n, "M6") {
			t.Fatalf("rsucc(%s) unexpectedly contains M6", n)
		}
	}
	// rsucc(M1) = {M3, M6, output}
	if !nrPath("M1", "M3") || !nrPath("M1", "M6") || !nrPath("M1", Output) {
		t.Fatal("rsucc(M1) != {M3, M6, output}")
	}
	// rpred(M7) = {input, M6}; rsucc(M7) = {output}
	if !nrPath(Input, "M7") || !nrPath("M6", "M7") {
		t.Fatal("rpred(M7) != {input, M6}")
	}
	if nrPath("M3", "M7") {
		t.Fatal("M3 must not nr-reach M7")
	}
	if !nrPath("M7", Output) || nrPath("M7", "M3") || nrPath("M7", "M6") {
		t.Fatal("rsucc(M7) != {output}")
	}
	// in(M3) = {M2}: rsucc(M2) = {M3} only.
	if !nrPath("M2", "M3") || nrPath("M2", Output) || nrPath("M2", "M6") {
		t.Fatal("rsucc(M2) != {M3}")
	}
	// out(M6) = {M8}: rpred(M8) = {M6} only.
	if !nrPath("M6", "M8") || nrPath(Input, "M8") || nrPath("M3", "M8") {
		t.Fatal("rpred(M8) != {M6}")
	}
	// M7 is NOT in out(M6): reachable from both input and M6.
	if !(nrPath(Input, "M7") && nrPath("M6", "M7")) {
		t.Fatal("M7 must be nr-reachable from both input and M6")
	}
	// M1 not in in(M3): nr-paths from M1 to M3, M6 and output.
	if !(nrPath("M1", "M3") && nrPath("M1", "M6") && nrPath("M1", Output)) {
		t.Fatal("M1 must nr-reach M3, M6 and output")
	}
}

func TestFigure4Fixture(t *testing.T) {
	s, view, relevant := Figure4()
	if err := s.Validate(); err != nil {
		t.Fatalf("Figure 4 invalid: %v", err)
	}
	if len(view) != 2 || len(relevant) != 2 {
		t.Fatalf("unexpected fixture shape: %v %v", view, relevant)
	}
	// There must be no path r1 -> r2 (that is what makes the view bad).
	if s.Graph().Reach("r1")["r2"] {
		t.Fatal("fixture broken: r1 must not reach r2")
	}
	// And (r1, n2) must be on an nr-path r1 -> OUTPUT: the edge exists, and
	// non-relevant n2 reaches OUTPUT through no relevant module.
	rel := map[string]bool{"r1": true, "r2": true}
	toOutput := s.Graph().ReachBackAvoiding(Output, func(n string) bool { return rel[n] })
	if !s.Graph().HasEdge("r1", "n2") || rel["n2"] || !toOutput["n2"] {
		t.Fatal("fixture broken: (r1,n2) must lie on an nr-path r1->OUTPUT")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := Phylogenomics()
	c := s.Clone()
	c.MustAddModule(Module{Name: "X"})
	c.MustAddEdge("M7", "X")
	if s.HasModule("X") || s.Graph().HasEdge("M7", "X") {
		t.Fatal("clone mutation leaked into original")
	}
}

func TestFingerprintStability(t *testing.T) {
	a, b := Phylogenomics(), Phylogenomics()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical specs produced different fingerprints")
	}
	b.MustAddModule(Module{Name: "M9"})
	b.MustAddEdge("M7", "M9")
	b.MustAddEdge("M9", Output)
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different specs share a fingerprint")
	}
}

// TestFingerprintPinned pins the running example's fingerprint, so a change
// to how it is computed fails here instead of passing as a refactor.
func TestFingerprintPinned(t *testing.T) {
	if got, want := Phylogenomics().Fingerprint(), "795b8a9786a3e89e"; got != want {
		t.Fatalf("Phylogenomics().Fingerprint() = %s, want %s", got, want)
	}
}

func TestModuleAccessors(t *testing.T) {
	s := Phylogenomics()
	if !s.HasModule("M1") || s.HasModule("ghost") {
		t.Fatal("HasModule wrong")
	}
	mods := s.Modules()
	if len(mods) != 8 || mods[0].Name != "M1" {
		t.Fatalf("Modules = %v", mods)
	}
	if s.NumEdges() != 12 {
		t.Fatalf("NumEdges = %d, want 12", s.NumEdges())
	}
}
