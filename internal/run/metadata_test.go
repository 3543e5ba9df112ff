package run

import (
	"errors"
	"reflect"
	"testing"
)

func TestAnnotateInput(t *testing.T) {
	r := Figure2().Rebuild()
	if err := r.AnnotateInput("d1", map[string]string{"who": "joe"}); err != nil {
		t.Fatal(err)
	}
	if err := r.AnnotateInput("d1", map[string]string{"when": "2007-11-02"}); err != nil {
		t.Fatal(err)
	}
	got := mustBuild(t, r).InputMeta("d1")
	want := map[string]string{"who": "joe", "when": "2007-11-02"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("InputMeta = %v, want %v", got, want)
	}
	// Later values win, and the run built before keeps what it had.
	if err := r.AnnotateInput("d1", map[string]string{"who": "mary"}); err != nil {
		t.Fatal(err)
	}
	if mustBuild(t, r).InputMeta("d1")["who"] != "mary" || got["who"] != "joe" {
		t.Fatal("merge did not overwrite")
	}
}

func TestAnnotateInputRejectsProducedData(t *testing.T) {
	r := Figure2().Rebuild()
	if err := r.AnnotateInput("d413", map[string]string{"who": "x"}); !errors.Is(err, ErrNotExternal) {
		t.Fatalf("produced data annotated: %v", err)
	}
	if err := r.AnnotateInput("d9999", nil); !errors.Is(err, ErrNotExternal) {
		t.Fatalf("unknown data annotated: %v", err)
	}
}

func TestInputMetaCopies(t *testing.T) {
	b := Figure2().Rebuild()
	if err := b.AnnotateInput("d2", map[string]string{"who": "joe"}); err != nil {
		t.Fatal(err)
	}
	r := mustBuild(t, b)
	m := r.InputMeta("d2")
	m["who"] = "tampered"
	if r.InputMeta("d2")["who"] != "joe" {
		t.Fatal("InputMeta aliases internal state")
	}
	if r.InputMeta("d3") != nil {
		t.Fatal("unannotated data should return nil")
	}
}

func TestAnnotatedInputsOrder(t *testing.T) {
	b := Figure2().Rebuild()
	for _, d := range []string{"d10", "d2", "d415"} {
		if err := b.AnnotateInput(d, map[string]string{"k": "v"}); err != nil {
			t.Fatal(err)
		}
	}
	got := mustBuild(t, b).AnnotatedInputs()
	if !reflect.DeepEqual(got, []string{"d2", "d10", "d415"}) {
		t.Fatalf("AnnotatedInputs = %v (natural order expected)", got)
	}
}
