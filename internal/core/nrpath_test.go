package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/spec"
)

func TestAnalysisValidation(t *testing.T) {
	s := spec.Phylogenomics()
	if _, err := NewAnalysis(s, []string{"M99"}); !errors.Is(err, ErrBadRelevant) {
		t.Fatalf("unknown relevant module accepted: %v", err)
	}
	a, err := NewAnalysis(s, []string{"M3", "M3", "M7"}) // duplicates tolerated
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Relevant(); !reflect.DeepEqual(got, []string{"M3", "M7"}) {
		t.Fatalf("Relevant = %v", got)
	}
	if !a.IsRelevant("M3") || a.IsRelevant("M4") {
		t.Fatal("IsRelevant wrong")
	}
}

func TestAnalysisFigure6Values(t *testing.T) {
	// The paper states these rpred/rsucc values verbatim in Section III.
	s, relevant := spec.Figure6()
	a, err := NewAnalysis(s, relevant)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		node  string
		rpred []string
		rsucc []string
	}{
		{"M1", []string{spec.Input}, []string{"M3", "M6", spec.Output}},
		{"M2", []string{spec.Input}, []string{"M3"}},
		{"M4", []string{spec.Input}, []string{"M3", spec.Output}},
		{"M5", []string{spec.Input}, []string{"M3", spec.Output}},
		{"M7", []string{spec.Input, "M6"}, []string{spec.Output}},
		{"M8", []string{"M6"}, []string{spec.Output}},
	}
	for _, tc := range cases {
		if got := a.RPred(tc.node); !reflect.DeepEqual(got, sortedCopy(tc.rpred)) {
			t.Errorf("rpred(%s) = %v, want %v", tc.node, got, tc.rpred)
		}
		if got := a.RSucc(tc.node); !reflect.DeepEqual(got, sortedCopy(tc.rsucc)) {
			t.Errorf("rsucc(%s) = %v, want %v", tc.node, got, tc.rsucc)
		}
	}
}

func TestAnalysisEmptyRelevant(t *testing.T) {
	s := spec.Phylogenomics()
	a, err := NewAnalysis(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range s.ModuleNames() {
		if got := a.RPred(m); !reflect.DeepEqual(got, []string{spec.Input}) {
			t.Fatalf("rpred(%s) = %v with empty R", m, got)
		}
		if got := a.RSucc(m); !reflect.DeepEqual(got, []string{spec.Output}) {
			t.Fatalf("rsucc(%s) = %v with empty R", m, got)
		}
	}
}

func TestAnalysisLoopNodes(t *testing.T) {
	// In the phylogenomics loop M3 -> M4 -> M5 -> M3 with Joe's relevant
	// set, M4 and M5 sit between executions of M3: rpred must contain M3,
	// and M4 additionally reaches M7 while M5 only returns to M3.
	s := spec.Phylogenomics()
	a, _ := NewAnalysis(s, spec.PhyloRelevantJoe())
	if got := a.RPred("M4"); !reflect.DeepEqual(got, []string{"M3"}) {
		t.Fatalf("rpred(M4) = %v", got)
	}
	if got := a.RSucc("M4"); !reflect.DeepEqual(got, []string{"M3", "M7"}) {
		t.Fatalf("rsucc(M4) = %v", got)
	}
	if got := a.RSucc("M5"); !reflect.DeepEqual(got, []string{"M3"}) {
		t.Fatalf("rsucc(M5) = %v", got)
	}
}

func sortedCopy(xs []string) []string {
	out := append([]string(nil), xs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
