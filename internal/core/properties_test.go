package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/spec"
)

func TestWellFormed(t *testing.T) {
	s := spec.Phylogenomics()
	joe, _ := NewUserView(s, joeBlocks())
	if err := WellFormed(joe, spec.PhyloRelevantJoe()); err != nil {
		t.Fatalf("Joe's view is well-formed: %v", err)
	}
	// Mary's relevant set includes M5, which shares composite M10 with M3 in
	// Joe's view -> Property 1 violated.
	if err := WellFormed(joe, spec.PhyloRelevantMary()); !errors.Is(err, ErrProperty1) {
		t.Fatalf("expected property 1 violation, got %v", err)
	}
}

func TestJoeAndMaryViewsSatisfyAll(t *testing.T) {
	s := spec.Phylogenomics()
	joe, _ := NewUserView(s, joeBlocks())
	if err := CheckAll(joe, spec.PhyloRelevantJoe()); err != nil {
		t.Fatalf("Joe: %v", err)
	}
	mary, _ := NewUserView(s, maryBlocks())
	if err := CheckAll(mary, spec.PhyloRelevantMary()); err != nil {
		t.Fatalf("Mary: %v", err)
	}
}

func TestGroupingM1WithM2BreaksDataflow(t *testing.T) {
	// Section I: "by grouping M1 with M2 in a composite module M12, there
	// would exist an edge from M12 to M10 in the view ... it would appear
	// that Annotation checking (M2) must be performed before Run alignment
	// (M3), when in fact there is no precedence or dataflow between those
	// modules."
	s := spec.Phylogenomics()
	v, err := NewUserView(s, map[string][]string{
		"M12": {"M1", "M2"},
		"M10": {"M3", "M4", "M5"},
		"M9":  {"M6", "M7", "M8"},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = PreservesDataflow(v, spec.PhyloRelevantJoe())
	if !errors.Is(err, ErrProperty2) {
		t.Fatalf("expected property 2 violation, got %v", err)
	}
}

func TestFigure4Violations(t *testing.T) {
	// The paper derives both violations from Figure 4 explicitly.
	s, blocks, relevant := spec.Figure4()
	v, err := NewUserView(s, map[string][]string{"Cr1": blocks[0], "Cr2": blocks[1]})
	if err != nil {
		t.Fatal(err)
	}
	if err := WellFormed(v, relevant); err != nil {
		t.Fatalf("figure 4 view IS well-formed: %v", err)
	}
	if err := PreservesDataflow(v, relevant); !errors.Is(err, ErrProperty2) {
		t.Fatalf("want property 2 violation, got %v", err)
	}
	if err := CompleteWRTDataflow(v, relevant); !errors.Is(err, ErrProperty3) {
		t.Fatalf("want property 3 violation, got %v", err)
	}
	if err := PreservesPathLevel(v, relevant); err == nil {
		t.Fatal("path-level check passed on the known-bad view")
	}
}

func TestCheckersRejectUnknownRelevant(t *testing.T) {
	// A relevant module outside the specification is an error, as it is for
	// the builder; the checkers used to ignore it, so Joe's view passed
	// CheckAll for [M2 nope].
	s := spec.Phylogenomics()
	joe, _ := NewUserView(s, joeBlocks())
	rel := []string{"M2", "nope"}
	if _, err := BuildRelevant(s, rel); !errors.Is(err, ErrBadRelevant) {
		t.Fatalf("BuildRelevant: %v", err)
	}
	for name, check := range map[string]func(*UserView, []string) error{
		"CheckAll": CheckAll, "WellFormed": WellFormed,
		"PreservesDataflow": PreservesDataflow, "CompleteWRTDataflow": CompleteWRTDataflow,
	} {
		if err := check(joe, rel); !errors.Is(err, ErrBadRelevant) || !strings.Contains(err.Error(), `"nope"`) {
			t.Errorf("%s: err = %v, want ErrBadRelevant naming nope", name, err)
		}
	}
}

func TestUAdminAlwaysSatisfiesAll(t *testing.T) {
	for _, build := range []func() (*spec.Spec, []string){
		func() (*spec.Spec, []string) { return spec.Phylogenomics(), spec.PhyloRelevantJoe() },
		func() (*spec.Spec, []string) { s, r := spec.Figure6(); return s, r },
		func() (*spec.Spec, []string) { s, r := spec.Figure7(); return s, r },
	} {
		s, rel := build()
		v := UAdmin(s)
		if err := CheckAll(v, rel); err != nil {
			t.Fatalf("%s: UAdmin violates properties: %v", s.Name(), err)
		}
		if err := PreservesPathLevel(v, rel); err != nil {
			t.Fatalf("%s: UAdmin violates path-level: %v", s.Name(), err)
		}
	}
}

func TestUBlackBoxPropertiesWithEmptyRelevant(t *testing.T) {
	// With R = {} the black box trivially satisfies everything: the only
	// nr-path pair is (input, output) and it survives.
	s := spec.Phylogenomics()
	v, _ := UBlackBox(s)
	if err := CheckAll(v, nil); err != nil {
		t.Fatalf("black box with empty R: %v", err)
	}
	// With Joe's relevant modules the black box violates Property 1.
	if err := WellFormed(v, spec.PhyloRelevantJoe()); !errors.Is(err, ErrProperty1) {
		t.Fatalf("want property 1 violation, got %v", err)
	}
}

func TestMinimalDetectsMergeableViews(t *testing.T) {
	// UAdmin of phylogenomics with Joe's relevant set is NOT minimal:
	// the builder merges M4, M5 into M3's composite, so those singleton
	// blocks must be mergeable.
	s := spec.Phylogenomics()
	admin := UAdmin(s)
	ok, w := Minimal(admin, spec.PhyloRelevantJoe())
	if ok {
		t.Fatal("UAdmin reported minimal although the builder can coarsen it")
	}
	if w == nil || w.A == w.B {
		t.Fatalf("bad witness %v", w)
	}
}

func TestMinimalOnBuilderOutput(t *testing.T) {
	s := spec.Phylogenomics()
	for _, rel := range [][]string{spec.PhyloRelevantJoe(), spec.PhyloRelevantMary()} {
		v, _ := BuildRelevant(s, rel)
		if ok, w := Minimal(v, rel); !ok {
			t.Fatalf("builder output for %v not minimal: %v", rel, w)
		}
	}
}

func TestEdgeLevelImpliesPathLevel(t *testing.T) {
	// For the fixture views, edge-level success must imply path-level
	// success (cross-validation of the two formulations).
	s := spec.Phylogenomics()
	for _, rel := range [][]string{spec.PhyloRelevantJoe(), spec.PhyloRelevantMary(), nil} {
		v, err := BuildRelevant(s, rel)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckAll(v, rel); err != nil {
			t.Fatalf("edge-level failed: %v", err)
		}
		if err := PreservesPathLevel(v, rel); err != nil {
			t.Fatalf("path-level failed where edge-level passed: %v", err)
		}
	}
}
