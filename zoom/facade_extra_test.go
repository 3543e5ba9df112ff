package zoom_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/zoom"
)

// TestRefinementFlow exercises the hierarchical-view and view-evolution
// surface of the facade against the paper example.
func TestRefinementFlow(t *testing.T) {
	s := zoom.Phylogenomics()
	joe, err := zoom.BuildUserView(s, zoom.JoeRelevant())
	if err != nil {
		t.Fatal(err)
	}

	// Evolution: Joe flags M5 -> Mary's view; unflag -> back.
	v2, rel2, err := zoom.AddRelevant(s, zoom.JoeRelevant(), "M5")
	if err != nil {
		t.Fatal(err)
	}
	mary, _ := zoom.BuildUserView(s, zoom.MaryRelevant())
	if !v2.Equal(mary) || len(rel2) != 4 {
		t.Fatalf("AddRelevant wrong: %v", v2)
	}
	v3, _, err := zoom.RemoveRelevant(s, rel2, "M5")
	if err != nil || !v3.Equal(joe) {
		t.Fatalf("RemoveRelevant wrong: %v %v", v3, err)
	}

	// Hierarchy: drill into the tree-building composite.
	sub, err := zoom.SubSpec(joe, "M7")
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumModules() != 3 {
		t.Fatalf("sub-spec modules = %d", sub.NumModules())
	}
	refined, err := zoom.RefineComposite(joe, "M7", []string{"M7", "M8"})
	if err != nil {
		t.Fatal(err)
	}
	if !zoom.Refines(refined, joe) {
		t.Fatal("refinement relation broken")
	}
	if refined.Size() != joe.Size()+1 {
		t.Fatalf("refined size = %d, want %d", refined.Size(), joe.Size()+1)
	}
}

// TestCannedQueriesFacade exercises the prototype's interactive queries
// through the facade.
func TestCannedQueriesFacade(t *testing.T) {
	sys := zoom.NewSystem()
	s := zoom.Phylogenomics()
	b := zoom.PhylogenomicsRun().Rebuild()
	if err := b.AnnotateInput("d415", map[string]string{"who": "lab", "when": "2007-12-01"}); err != nil {
		t.Fatal(err)
	}
	r, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterSpec(s); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadRun(r); err != nil {
		t.Fatal(err)
	}
	mary, _ := zoom.BuildUserView(s, zoom.MaryRelevant())

	execs, err := sys.Executions("fig2", mary)
	if err != nil {
		t.Fatal(err)
	}
	if len(execs) != 6 {
		t.Fatalf("Mary sees %d executions, want 6", len(execs))
	}

	data, err := sys.DataBetween("fig2", mary, "S4", "M3@2")
	if err != nil || len(data) != 1 || data[0] != "d411" {
		t.Fatalf("DataBetween = %v, %v", data, err)
	}

	ok, err := sys.InProvenance("fig2", "d410", "d447")
	if err != nil || !ok {
		t.Fatalf("InProvenance(d410, d447) = %v, %v", ok, err)
	}

	common, err := sys.CommonProvenance("fig2", mary, "d413", "d414")
	if err != nil || len(common) == 0 {
		t.Fatalf("CommonProvenance = %v, %v", common, err)
	}

	ep, err := sys.ExecutionProvenance("fig2", mary, "M3@2")
	if err != nil || ep.NumSteps() == 0 {
		t.Fatalf("ExecutionProvenance = %v, %v", ep, err)
	}

	// Metadata survives warehouse persistence and surfaces in queries.
	res, err := sys.DeepProvenance("fig2", mary, "d415")
	if err != nil {
		t.Fatal(err)
	}
	if res.Metadata["who"] != "lab" {
		t.Fatalf("metadata = %v", res.Metadata)
	}
}

func TestPathAndCompareFacade(t *testing.T) {
	sys := zoom.NewSystem()
	s := zoom.Phylogenomics()
	if err := sys.RegisterSpec(s); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadRun(zoom.PhylogenomicsRun()); err != nil {
		t.Fatal(err)
	}
	mary, _ := zoom.BuildUserView(s, zoom.MaryRelevant())
	path, err := sys.DerivationPath("fig2", mary, "d308", "d447")
	if err != nil || len(path) == 0 {
		t.Fatalf("DerivationPath: %v %v", path, err)
	}
	if out := zoom.FormatPath(path); out == "" || out == "(no derivation path)" {
		t.Fatalf("FormatPath = %q", out)
	}
	ans, err := sys.Ask("fig2", mary, "path(d308, d447)")
	if err != nil {
		t.Fatal(err)
	}
	if zoom.RenderAnswer(ans) == "" {
		t.Fatal("empty answer")
	}

	a, _, err := zoom.Execute(s, zoom.ExecConfig{RunID: "a", Seed: 1, LoopIter: [2]int{2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := zoom.Execute(s, zoom.ExecConfig{RunID: "b", Seed: 1, LoopIter: [2]int{4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	d := zoom.CompareRuns(a, b)
	if d.SameShape() {
		t.Fatal("different iteration counts reported as same shape")
	}
}

// TestDropRunReleasesTheRun: after System.DropRun nothing in the system
// reaches the run any more, so the collector takes it back. A mapping memo
// outside the warehouse used to: a run queried under any view stayed in memory until
// 1,024 other mappings had pushed its entries out. The run is made wide
// enough (50,000 inputs: megabytes of names and relations) that holding it
// and releasing it are far apart on the live-heap gauge.
func TestDropRunReleasesTheRun(t *testing.T) {
	live := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	sys := zoom.NewSystem()
	s := zoom.Phylogenomics()
	if err := sys.RegisterSpec(s); err != nil {
		t.Fatal(err)
	}
	joe, err := zoom.BuildUserView(s, zoom.JoeRelevant())
	if err != nil {
		t.Fatal(err)
	}
	mary, err := zoom.BuildUserView(s, zoom.MaryRelevant())
	if err != nil {
		t.Fatal(err)
	}
	empty := live()
	func() {
		b := zoom.PhylogenomicsRun().Rebuild()
		wide := make([]string, 50000)
		for i := range wide {
			wide[i] = fmt.Sprintf("wide%d", i)
		}
		if err := b.AddFlow(zoom.Input, "S1", wide); err != nil {
			t.Fatal(err)
		}
		r, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadRun(r); err != nil {
			t.Fatal(err)
		}
	}()
	for _, v := range []*zoom.UserView{zoom.UAdmin(s), joe, mary} {
		if _, err := sys.DeepProvenance("fig2", v, "d447"); err != nil {
			t.Fatal(err)
		}
	}
	held := live() - empty
	if held < 2<<20 {
		t.Fatalf("fixture: the loaded, queried run holds only %d bytes", held)
	}
	if err := sys.DropRun("fig2"); err != nil {
		t.Fatal(err)
	}
	if left := live() - empty; left > held/4 {
		t.Fatalf("DropRun left %d of the run's %d live bytes reachable", left, held)
	}
	runtime.KeepAlive(sys)
}
