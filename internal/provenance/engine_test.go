package provenance

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/warehouse"
)

type fixture struct {
	w    *warehouse.Warehouse
	e    *Engine
	s    *spec.Spec
	joe  *core.UserView
	mary *core.UserView
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	f := &fixture{w: warehouse.New(0), s: spec.Phylogenomics()}
	if err := f.w.RegisterSpec(f.s); err != nil {
		t.Fatal(err)
	}
	if err := f.w.LoadRun(run.Figure2()); err != nil {
		t.Fatal(err)
	}
	var err error
	f.joe, err = core.BuildRelevant(f.s, spec.PhyloRelevantJoe())
	if err != nil {
		t.Fatal(err)
	}
	f.mary, err = core.BuildRelevant(f.s, spec.PhyloRelevantMary())
	if err != nil {
		t.Fatal(err)
	}
	f.e = NewEngine(f.w)
	return f
}

// TestImmediateProvenanceJoeVsMary is the paper's Section II contrast:
// "the immediate provenance of d413 seen by Joe would be S13 and its
// input, {d308,...,d408} ... whereas that seen by Mary would be S12 and
// its input, {d411}".
func TestImmediateProvenanceJoeVsMary(t *testing.T) {
	f := newFixture(t)
	s13, err := f.e.ImmediateProvenance("fig2", f.joe, "d413")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s13.Steps, []string{"S2", "S3", "S4", "S5", "S6"}) {
		t.Fatalf("Joe's producer execution steps = %v", s13.Steps)
	}
	if !reflect.DeepEqual(s13.Inputs, run.DataIDs(308, 408)) {
		t.Fatalf("Joe's inputs = %s", run.FormatDataSet(s13.Inputs))
	}
	s12, err := f.e.ImmediateProvenance("fig2", f.mary, "d413")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s12.Steps, []string{"S5", "S6"}) {
		t.Fatalf("Mary's producer execution steps = %v", s12.Steps)
	}
	if !reflect.DeepEqual(s12.Inputs, []string{"d411"}) {
		t.Fatalf("Mary's inputs = %v", s12.Inputs)
	}
}

// TestDeepProvenanceD413Visibility: Mary's deep provenance of d413
// includes d410 and d411 (data passed between executions of M11 and M5);
// Joe's does not (internal to S13), and Joe is unaware of the looping.
func TestDeepProvenanceD413Visibility(t *testing.T) {
	f := newFixture(t)
	mary, err := f.e.DeepProvenance("fig2", f.mary, "d413")
	if err != nil {
		t.Fatal(err)
	}
	joe, err := f.e.DeepProvenance("fig2", f.joe, "d413")
	if err != nil {
		t.Fatal(err)
	}
	maryData := toSet(mary.Data)
	if !maryData["d410"] || !maryData["d411"] {
		t.Fatalf("Mary must see d410 and d411: %v", run.FormatDataSet(mary.Data))
	}
	joeData := toSet(joe.Data)
	for _, hidden := range []string{"d409", "d410", "d411", "d412"} {
		if joeData[hidden] {
			t.Fatalf("Joe must not see %s", hidden)
		}
	}
	// Joe sees one execution of his alignment composite, Mary two of hers:
	// the loop is invisible to Joe.
	countComposite := func(res *Result, comp string) int {
		n := 0
		for _, ex := range res.Executions {
			if ex.Composite == comp {
				n++
			}
		}
		return n
	}
	if got := countComposite(joe, "M3"); got != 1 {
		t.Fatalf("Joe sees %d alignment executions, want 1", got)
	}
	if got := countComposite(mary, "M3"); got != 2 {
		t.Fatalf("Mary sees %d alignment executions, want 2 (S11, S12)", got)
	}
	// Mary additionally sees the M5 step S4.
	if got := countComposite(mary, "M5"); got != 1 {
		t.Fatalf("Mary sees %d M5 executions, want 1", got)
	}
	// Both see the shared upstream: S1's composite and the root data.
	if !toSet(joe.Data)["d413"] || !toSet(mary.Data)["d413"] {
		t.Fatal("root data missing")
	}
	// Deep provenance of d413 as seen by Mary includes S11 and its input
	// {d308..d408}.
	for _, d := range run.DataIDs(308, 408) {
		if !maryData[d] {
			t.Fatalf("Mary's deep provenance missing %s", d)
		}
	}
}

func TestDeepProvenanceD447AllViews(t *testing.T) {
	f := newFixture(t)
	admin := core.UAdmin(f.s)
	bb, err := core.UBlackBox(f.s)
	if err != nil {
		t.Fatal(err)
	}
	resAdmin, err := f.e.DeepProvenance("fig2", admin, "d447")
	if err != nil {
		t.Fatal(err)
	}
	resJoe, err := f.e.DeepProvenance("fig2", f.joe, "d447")
	if err != nil {
		t.Fatal(err)
	}
	resBB, err := f.e.DeepProvenance("fig2", bb, "d447")
	if err != nil {
		t.Fatal(err)
	}
	// UAdmin sees all 10 steps and all 246 data objects.
	if resAdmin.NumSteps() != 10 {
		t.Fatalf("UAdmin steps = %d", resAdmin.NumSteps())
	}
	r, _ := f.w.Run("fig2")
	if resAdmin.NumData() != r.NumData() {
		t.Fatalf("UAdmin data = %d, want %d", resAdmin.NumData(), r.NumData())
	}
	// The black box sees one execution, the external inputs and the root.
	if resBB.NumSteps() != 1 {
		t.Fatalf("UBlackBox steps = %d", resBB.NumSteps())
	}
	if resBB.NumData() != 131+1 {
		t.Fatalf("UBlackBox data = %d, want 132", resBB.NumData())
	}
	// Monotonicity: UAdmin >= Joe >= UBlackBox.
	if !(resAdmin.NumData() >= resJoe.NumData() && resJoe.NumData() >= resBB.NumData()) {
		t.Fatalf("sizes not monotone: %d %d %d", resAdmin.NumData(), resJoe.NumData(), resBB.NumData())
	}
	if !(resAdmin.NumSteps() >= resJoe.NumSteps() && resJoe.NumSteps() >= resBB.NumSteps()) {
		t.Fatalf("steps not monotone: %d %d %d", resAdmin.NumSteps(), resJoe.NumSteps(), resBB.NumSteps())
	}
	if resAdmin.Tuples() <= resBB.Tuples() {
		t.Fatal("tuple counts not ordered")
	}
}

func TestDeepProvenanceEdges(t *testing.T) {
	f := newFixture(t)
	res, err := f.e.DeepProvenance("fig2", f.mary, "d413")
	if err != nil {
		t.Fatal(err)
	}
	find := func(from, to string) *Edge {
		for i := range res.Edges {
			if res.Edges[i].From == from && res.Edges[i].To == to {
				return &res.Edges[i]
			}
		}
		return nil
	}
	if e := find("M3@1", "S4"); e == nil || !reflect.DeepEqual(e.Data, []string{"d410"}) {
		t.Fatalf("edge M3@1 -> S4: %+v", e)
	}
	if e := find("S4", "M3@2"); e == nil || !reflect.DeepEqual(e.Data, []string{"d411"}) {
		t.Fatalf("edge S4 -> M3@2: %+v", e)
	}
	if e := find(spec.Input, "S1"); e == nil || len(e.Data) != 100 {
		t.Fatalf("edge INPUT -> S1: %+v", e)
	}
	// No edge may reference an invisible execution.
	vis := make(map[string]bool)
	for _, ex := range res.Executions {
		vis[ex.ID] = true
	}
	for _, e := range res.Edges {
		if e.From != spec.Input && !vis[e.From] {
			t.Fatalf("edge from invisible execution %s", e.From)
		}
		if !vis[e.To] {
			t.Fatalf("edge to invisible execution %s", e.To)
		}
	}
}

func TestExternalRoot(t *testing.T) {
	f := newFixture(t)
	res, err := f.e.DeepProvenance("fig2", f.joe, "d1")
	if err != nil {
		t.Fatal(err)
	}
	if !res.External {
		t.Fatal("d1 should be marked external")
	}
	if res.NumSteps() != 0 || res.NumData() != 1 {
		t.Fatalf("external root result: steps=%d data=%d", res.NumSteps(), res.NumData())
	}
	ex, err := f.e.ImmediateProvenance("fig2", f.joe, "d1")
	if err != nil || ex != nil {
		t.Fatalf("immediate provenance of external data: %v, %v", ex, err)
	}
}

func TestQueryErrors(t *testing.T) {
	f := newFixture(t)
	if _, err := f.e.DeepProvenance("ghost", f.joe, "d1"); !errors.Is(err, warehouse.ErrUnknownRun) {
		t.Fatalf("unknown run: %v", err)
	}
	if _, err := f.e.DeepProvenance("fig2", f.joe, "nope"); !errors.Is(err, warehouse.ErrUnknownData) {
		t.Fatalf("unknown data: %v", err)
	}
	foreign := core.UAdmin(specOther())
	if _, err := f.e.DeepProvenance("fig2", foreign, "d447"); !errors.Is(err, ErrForeignView) {
		t.Fatalf("foreign view: %v", err)
	}
	if _, err := f.e.ImmediateProvenance("fig2", foreign, "d447"); !errors.Is(err, ErrForeignView) {
		t.Fatalf("foreign view (immediate): %v", err)
	}
	if _, err := f.e.ImmediateProvenance("fig2", f.joe, "nope"); !errors.Is(err, warehouse.ErrUnknownData) {
		t.Fatalf("unknown data (immediate): %v", err)
	}
	if _, err := f.e.DeepDerivation("fig2", foreign, "d447"); !errors.Is(err, ErrForeignView) {
		t.Fatalf("foreign view (derivation): %v", err)
	}
}

func TestDeepDerivation(t *testing.T) {
	f := newFixture(t)
	// Everything derived from d1 under Joe's view reaches the final tree.
	res, err := f.e.DeepDerivation("fig2", f.joe, "d1")
	if err != nil {
		t.Fatal(err)
	}
	got := toSet(res.Data)
	if !got["d447"] {
		t.Fatalf("derivation of d1 must include the final output: %v", run.FormatDataSet(res.Data))
	}
	if got["d411"] {
		t.Fatal("internal loop data visible in Joe's derivation result")
	}
	// Derivation from d414 (S8's output): only the tree step and output.
	res, err = f.e.DeepDerivation("fig2", f.mary, "d414")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumSteps() != 1 {
		t.Fatalf("derivation steps = %d, want 1 (tree composite)", res.NumSteps())
	}
}

func TestViewSwitchUsesCache(t *testing.T) {
	f := newFixture(t)
	if _, err := f.e.DeepProvenance("fig2", f.joe, "d447"); err != nil {
		t.Fatal(err)
	}
	c0 := f.w.CacheCounters()
	if c0.Hits != 0 || c0.Misses != 1 {
		t.Fatalf("first query: hits=%d misses=%d", c0.Hits, c0.Misses)
	}
	// Switching to Mary's view reuses the cached closure.
	if _, err := f.e.DeepProvenance("fig2", f.mary, "d447"); err != nil {
		t.Fatal(err)
	}
	c1 := f.w.CacheCounters()
	if c1.Hits != 1 || c1.Misses != 1 {
		t.Fatalf("view switch did not hit cache: hits=%d misses=%d", c1.Hits, c1.Misses)
	}
}

func TestDirectStrategyMatchesOnUAdmin(t *testing.T) {
	f := newFixture(t)
	admin := core.UAdmin(f.s)
	for _, d := range []string{"d447", "d413", "d410", "d206"} {
		a, err := f.e.DeepProvenance("fig2", admin, d)
		if err != nil {
			t.Fatal(err)
		}
		b, err := f.e.DeepProvenanceDirect("fig2", admin, d)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Data, b.Data) {
			t.Fatalf("data differ for %s:\n%v\n%v", d, a.Data, b.Data)
		}
		if a.NumSteps() != b.NumSteps() {
			t.Fatalf("steps differ for %s: %d vs %d", d, a.NumSteps(), b.NumSteps())
		}
	}
}

func TestDirectStrategySupersetInGeneral(t *testing.T) {
	// The direct strategy may include extra inputs of multi-step composite
	// executions, never fewer.
	f := newFixture(t)
	for _, v := range []*core.UserView{f.joe, f.mary} {
		for _, d := range []string{"d447", "d413"} {
			a, err := f.e.DeepProvenance("fig2", v, d)
			if err != nil {
				t.Fatal(err)
			}
			b, err := f.e.DeepProvenanceDirect("fig2", v, d)
			if err != nil {
				t.Fatal(err)
			}
			aSet, bSet := toSet(a.Data), toSet(b.Data)
			for x := range aSet {
				if !bSet[x] {
					t.Fatalf("direct strategy lost %s for view query (%s)", x, d)
				}
			}
		}
	}
}

func TestDirectStrategyErrors(t *testing.T) {
	f := newFixture(t)
	if _, err := f.e.DeepProvenanceDirect("ghost", f.joe, "d1"); !errors.Is(err, warehouse.ErrUnknownRun) {
		t.Fatalf("unknown run: %v", err)
	}
	if _, err := f.e.DeepProvenanceDirect("fig2", f.joe, "nope"); !errors.Is(err, warehouse.ErrUnknownData) {
		t.Fatalf("unknown data: %v", err)
	}
	foreign := core.UAdmin(specOther())
	if _, err := f.e.DeepProvenanceDirect("fig2", foreign, "d447"); !errors.Is(err, ErrForeignView) {
		t.Fatalf("foreign view: %v", err)
	}
}

func specOther() *spec.Spec {
	s := spec.New("other")
	s.MustAddModule(spec.Module{Name: "X"})
	s.MustAddEdge(spec.Input, "X")
	s.MustAddEdge("X", spec.Output)
	return s
}

func toSet(xs []string) map[string]bool {
	out := make(map[string]bool, len(xs))
	for _, x := range xs {
		out[x] = true
	}
	return out
}

// TestProjectionKeepsRootOnACycle: the root is closure data even when no
// closure step reads it. Module M loops on itself and feeds N, which feeds
// M again. In the run, s1(M) -> d1 -> s2(M) and s1 -> d2 -> n1(N) -> d3 ->
// s2, so under UAdmin M's execution is {s1, s2}. The deep provenance of d3
// has closure steps {n1, s1}; M's execution is visible through s1, and its
// input d3 is read only by s2, outside the closure. The edge N -> M carrying
// d3 is still part of the answer, as the direct strategy and a closure's
// data set (which always holds its root) say.
func TestProjectionKeepsRootOnACycle(t *testing.T) {
	s := spec.New("cyc")
	s.MustAddModule(spec.Module{Name: "M"})
	s.MustAddModule(spec.Module{Name: "N"})
	s.MustAddEdge(spec.Input, "M")
	s.MustAddEdge("M", "M")
	s.MustAddEdge("M", "N")
	s.MustAddEdge("N", "M")
	s.MustAddEdge("M", spec.Output)
	b := run.NewBuilder("cyc1", "cyc")
	for _, st := range [][2]string{{"s1", "M"}, {"s2", "M"}, {"n1", "N"}} {
		if err := b.AddStep(st[0], st[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []struct {
		from, to string
		data     []string
	}{
		{spec.Input, "s1", []string{"d0"}},
		{"s1", "s2", []string{"d1"}},
		{"s1", "n1", []string{"d2"}},
		{"n1", "s2", []string{"d3"}},
		{"s2", spec.Output, []string{"d4"}},
	} {
		if err := b.AddFlow(f.from, f.to, f.data); err != nil {
			t.Fatal(err)
		}
	}
	r, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	w := warehouse.New(0)
	if err := w.RegisterSpec(s); err != nil {
		t.Fatal(err)
	}
	if err := w.LoadRun(r); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(w)
	admin := core.UAdmin(s)
	got, err := e.DeepProvenance("cyc1", admin, "d3")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := e.DeepProvenanceDirect("cyc1", admin, "d3")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Data, []string{"d0", "d2", "d3"}) {
		t.Fatalf("data = %v, want [d0 d2 d3]", got.Data)
	}
	if !reflect.DeepEqual(got.Data, direct.Data) || !reflect.DeepEqual(got.Edges, direct.Edges) {
		t.Fatalf("projected and direct answers differ:\n%v %v\n%v %v", got.Data, got.Edges, direct.Data, direct.Edges)
	}
	found := false
	for _, ed := range got.Edges {
		found = found || slices.Contains(ed.Data, "d3")
	}
	if !found {
		t.Fatalf("no edge carries the root d3: %v", got.Edges)
	}
}
