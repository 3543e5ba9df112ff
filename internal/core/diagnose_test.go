package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/spec"
)

func TestDiagnoseCleanView(t *testing.T) {
	s := spec.Phylogenomics()
	joe, _ := BuildRelevant(s, spec.PhyloRelevantJoe())
	if vs := Diagnose(joe, spec.PhyloRelevantJoe()); len(vs) != 0 {
		t.Fatalf("clean view diagnosed: %v", vs)
	}
}

func TestDiagnoseFigure4FindsBoth(t *testing.T) {
	s, blocks, relevant := spec.Figure4()
	v, err := NewUserView(s, map[string][]string{"A": blocks[0], "B": blocks[1]})
	if err != nil {
		t.Fatal(err)
	}
	vs := Diagnose(v, relevant)
	var p2, p3 int
	for _, viol := range vs {
		switch viol.Kind {
		case ViolationPreserves:
			p2++
		case ViolationComplete:
			p3++
		case ViolationWellFormed:
			t.Fatalf("figure 4 view is well-formed, got %v", viol)
		}
	}
	if p2 == 0 || p3 == 0 {
		t.Fatalf("expected both property 2 and 3 findings, got %v", vs)
	}
	// The paper's concrete evidence appears among the findings: the edge
	// (n1, r2) is a property-2 witness.
	found := false
	for _, viol := range vs {
		if viol.Kind == ViolationPreserves && viol.Edge == [2]string{"n1", "r2"} {
			found = true
		}
	}
	if !found {
		t.Fatalf("the paper's (n1, r2) witness missing from %v", vs)
	}
}

func TestDiagnoseProperty1(t *testing.T) {
	s := spec.Phylogenomics()
	joe, _ := NewUserView(s, joeBlocks())
	// Against Mary's relevant set, M10 holds both M3 and M5.
	vs := Diagnose(joe, spec.PhyloRelevantMary())
	found := false
	for _, viol := range vs {
		if viol.Kind == ViolationWellFormed && viol.Composite == "M10" {
			found = true
			if !strings.Contains(viol.Detail, "M3") || !strings.Contains(viol.Detail, "M5") {
				t.Fatalf("detail incomplete: %s", viol.Detail)
			}
		}
	}
	if !found {
		t.Fatalf("property 1 violation on M10 not found: %v", vs)
	}
}

func TestDiagnoseDeterministic(t *testing.T) {
	s, blocks, relevant := spec.Figure4()
	v, _ := NewUserView(s, map[string][]string{"A": blocks[0], "B": blocks[1]})
	a := Diagnose(v, relevant)
	b := Diagnose(v, relevant)
	if len(a) != len(b) {
		t.Fatal("non-deterministic count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic order at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if a[0].String() == "" {
		t.Fatal("empty rendering")
	}
}

func TestDiagnoseCountsDuplicatesOnce(t *testing.T) {
	// A module listed twice in relevant is one relevant module: it used to
	// repeat each of its violations once per listing (5 became 10 here).
	s := spec.Phylogenomics()
	v, err := NewUserView(s, map[string][]string{
		"A": {"M1", "M2", "M3", "M4", "M5"},
		"B": {"M6", "M7", "M8"},
	})
	if err != nil {
		t.Fatal(err)
	}
	once := Diagnose(v, []string{"M3", "M7"})
	if len(once) != 5 {
		t.Fatalf("Diagnose found %d violations, want 5: %v", len(once), once)
	}
	for _, dup := range [][]string{{"M3", "M7", "M7"}, {"M3", "M3", "M7", "M3"}} {
		if got := Diagnose(v, dup); !reflect.DeepEqual(got, once) {
			t.Fatalf("relevant %v: %d violations, want the 5 of [M3 M7]: %v", dup, len(got), got)
		}
		if got := oracleDiagnose(v, dup); !reflect.DeepEqual(got, once) {
			t.Fatalf("oracle, relevant %v: %d violations, want the 5 of [M3 M7]", dup, len(got))
		}
	}
}

func TestDiagnoseAgreesWithCheckAll(t *testing.T) {
	// Diagnose finds nothing exactly when CheckAll passes, across the
	// random instances of the theorem test generator.
	rngSpecs := []struct {
		blocks map[string][]string
		rel    []string
	}{
		{joeBlocks(), spec.PhyloRelevantJoe()},
		{maryBlocks(), spec.PhyloRelevantMary()},
		{map[string][]string{"A": {"M1", "M2"}, "M10": {"M3", "M4", "M5"}, "M9": {"M6", "M7", "M8"}}, spec.PhyloRelevantJoe()},
	}
	s := spec.Phylogenomics()
	for i, tc := range rngSpecs {
		v, err := NewUserView(s, tc.blocks)
		if err != nil {
			t.Fatal(err)
		}
		checkErr := CheckAll(v, tc.rel)
		finds := Diagnose(v, tc.rel)
		if (checkErr == nil) != (len(finds) == 0) {
			t.Fatalf("case %d: CheckAll=%v but Diagnose found %d", i, checkErr, len(finds))
		}
	}
}
