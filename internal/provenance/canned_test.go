package provenance

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/run"
	"repro/internal/warehouse"
)

func TestDataBetween(t *testing.T) {
	f := newFixture(t)
	// Mary: M3@1 (S11) feeds S4 with d410; S4 feeds M3@2 (S12) with d411.
	got, err := f.e.DataBetween("fig2", f.mary, "M3@1", "S4")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"d410"}) {
		t.Fatalf("DataBetween(M3@1, S4) = %v", got)
	}
	got, err = f.e.DataBetween("fig2", f.mary, "S4", "M3@2")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"d411"}) {
		t.Fatalf("DataBetween(S4, M3@2) = %v", got)
	}
	// No direct flow between S1's execution and the tree composite.
	got, err = f.e.DataBetween("fig2", f.mary, "S1", "M7@1")
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("unexpected data: %v", got)
	}
	if _, err := f.e.DataBetween("fig2", f.mary, "ghost", "S4"); err == nil {
		t.Fatal("unknown from-execution accepted")
	}
	if _, err := f.e.DataBetween("fig2", f.mary, "S4", "ghost"); err == nil {
		t.Fatal("unknown to-execution accepted")
	}
}

func TestInProvenance(t *testing.T) {
	f := newFixture(t)
	cases := []struct {
		candidate, target string
		want              bool
	}{
		{"d1", "d447", true},
		{"d411", "d413", true},
		{"d446", "d413", false}, // annotation branch not upstream of d413
		{"d447", "d1", false},   // wrong direction
		{"d447", "d447", false}, // an object is not in its own provenance
	}
	for _, tc := range cases {
		got, err := f.e.InProvenance("fig2", tc.candidate, tc.target)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("InProvenance(%s, %s) = %v, want %v", tc.candidate, tc.target, got, tc.want)
		}
	}
	if _, err := f.e.InProvenance("fig2", "nope", "d447"); !errors.Is(err, warehouse.ErrUnknownData) {
		t.Fatalf("unknown candidate: %v", err)
	}
	if _, err := f.e.InProvenance("fig2", "d1", "nope"); !errors.Is(err, warehouse.ErrUnknownData) {
		t.Fatalf("unknown target: %v", err)
	}
}

func TestCommonProvenance(t *testing.T) {
	f := newFixture(t)
	// d413 (alignment) and d414 (formatted annotations) share the original
	// database entries d1..d100 via S1.
	got, err := f.e.CommonProvenance("fig2", f.joe, "d413", "d414")
	if err != nil {
		t.Fatal(err)
	}
	set := toSet(got)
	if !set["d1"] || !set["d100"] {
		t.Fatalf("common provenance missing the shared inputs: %v", got)
	}
	// The alignment-only inputs are NOT shared with d414.
	if set["d308"] {
		t.Fatal("d308 wrongly reported as common")
	}
	if set["d413"] || set["d414"] {
		t.Fatal("query endpoints must be excluded")
	}
}

func TestExecutionProvenance(t *testing.T) {
	f := newFixture(t)
	// The provenance of Mary's S12 (= M3@2) includes the loop prefix and
	// the original inputs, and S12 itself.
	res, err := f.e.ExecutionProvenance("fig2", f.mary, "M3@2")
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]bool)
	for _, ex := range res.Executions {
		ids[ex.ID] = true
	}
	for _, want := range []string{"S1", "M3@1", "S4", "M3@2"} {
		if !ids[want] {
			t.Fatalf("execution %s missing from result: %v", want, res.Executions)
		}
	}
	data := toSet(res.Data)
	if !data["d411"] || !data["d1"] {
		t.Fatalf("data missing: %v", res.Data)
	}
	if data["M3@2"] {
		t.Fatal("execution id leaked into the data set")
	}
	if _, err := f.e.ExecutionProvenance("fig2", f.mary, "ghost"); err == nil {
		t.Fatal("unknown execution accepted")
	}
}

func TestExecutionsListing(t *testing.T) {
	f := newFixture(t)
	execs, err := f.e.Executions("fig2", f.joe)
	if err != nil {
		t.Fatal(err)
	}
	// Joe's view induces exactly four executions on Figure 2:
	// S1 (NR1={M1}), S7 (M2), M3@1 = S13 = {S2..S6}, M7@1 = {S8, S9, S10}.
	if len(execs) != 4 {
		t.Fatalf("got %d executions: %v", len(execs), execs)
	}
	if execs[0].ID != "S1" {
		t.Fatalf("executions not in topological order: %v", execs[0])
	}
	if _, err := f.e.Executions("ghost", f.joe); !errors.Is(err, warehouse.ErrUnknownRun) {
		t.Fatalf("unknown run: %v", err)
	}
}

func TestInputMetadataSurfaces(t *testing.T) {
	f := newFixture(t)
	b := run.Figure2().Rebuild()
	if err := b.AnnotateInput("d1", map[string]string{"who": "joe", "when": "2007-11-02"}); err != nil {
		t.Fatal(err)
	}
	r, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.w.DropRun("fig2"); err != nil {
		t.Fatal(err)
	}
	if err := f.w.LoadRun(r); err != nil {
		t.Fatal(err)
	}
	res, err := f.e.DeepProvenance("fig2", f.joe, "d1")
	if err != nil {
		t.Fatal(err)
	}
	if !res.External || res.Metadata["who"] != "joe" {
		t.Fatalf("metadata not surfaced: %+v", res)
	}
	// Annotating produced data is rejected.
	if err := b.AnnotateInput("d413", map[string]string{"who": "x"}); err == nil {
		t.Fatal("annotating produced data accepted")
	}
}
