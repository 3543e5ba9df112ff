package zoom_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/zoom"
)

// TestPublicAPIWalkthrough drives the whole paper scenario through the
// facade only: register Figure 1, load Figure 2, build Joe's and Mary's
// views, and check the documented answers.
func TestPublicAPIWalkthrough(t *testing.T) {
	sys := zoom.NewSystem()
	s := zoom.Phylogenomics()
	if err := sys.RegisterSpec(s); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadRun(zoom.PhylogenomicsRun()); err != nil {
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
	if err := sys.RegisterView("joe", joe); err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterView("mary", mary); err != nil {
		t.Fatal(err)
	}
	if got := sys.ViewNames("phylogenomics"); len(got) != 2 {
		t.Fatalf("ViewNames = %v", got)
	}

	exJoe, err := sys.ImmediateProvenance("fig2", joe, "d413")
	if err != nil {
		t.Fatal(err)
	}
	if zoom.FormatDataSet(exJoe.Inputs) != "{d308..d408}" {
		t.Fatalf("Joe's immediate provenance inputs = %s", zoom.FormatDataSet(exJoe.Inputs))
	}
	exMary, err := sys.ImmediateProvenance("fig2", mary, "d413")
	if err != nil {
		t.Fatal(err)
	}
	if zoom.FormatDataSet(exMary.Inputs) != "{d411}" {
		t.Fatalf("Mary's immediate provenance inputs = %s", zoom.FormatDataSet(exMary.Inputs))
	}

	res, err := sys.DeepProvenance("fig2", joe, "d447")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumSteps() == 0 || res.NumData() == 0 {
		t.Fatal("empty provenance result")
	}
	if !strings.Contains(zoom.ProvenanceText(res), "deep provenance of d447") {
		t.Fatal("ProvenanceText malformed")
	}
	if !strings.Contains(zoom.ProvenanceDOT(res), "digraph") {
		t.Fatal("ProvenanceDOT malformed")
	}
}

func TestFacadeViewsAndChecks(t *testing.T) {
	s := zoom.Phylogenomics()
	admin := zoom.UAdmin(s)
	if admin.Size() != 8 {
		t.Fatalf("UAdmin size = %d", admin.Size())
	}
	bb, err := zoom.UBlackBox(s)
	if err != nil || bb.Size() != 1 {
		t.Fatalf("UBlackBox: %v %v", bb, err)
	}
	joe, _ := zoom.BuildUserView(s, zoom.JoeRelevant())
	if err := zoom.CheckView(joe, zoom.JoeRelevant()); err != nil {
		t.Fatal(err)
	}
	if ok, _ := zoom.MinimalView(joe, zoom.JoeRelevant()); !ok {
		t.Fatal("Joe's view should be minimal")
	}
	min, err := zoom.MinimumView(s, zoom.JoeRelevant())
	if err != nil {
		t.Fatal(err)
	}
	if min.Size() > joe.Size() {
		t.Fatal("minimum larger than builder view")
	}
	custom, err := zoom.NewUserView(s, map[string][]string{
		"all": {"M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8"},
	})
	if err != nil || custom.Size() != 1 {
		t.Fatalf("NewUserView: %v %v", custom, err)
	}
}

func TestFacadeExecuteAndLogs(t *testing.T) {
	s := zoom.Phylogenomics()
	r, events, err := zoom.Execute(s, zoom.ExecConfig{RunID: "x", Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := zoom.ValidateLog(events); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := zoom.WriteLog(&buf, events); err != nil {
		t.Fatal(err)
	}
	parsed, err := zoom.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := zoom.RunFromLog("x", s.Name(), parsed)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumSteps() != r.NumSteps() {
		t.Fatal("log round trip lost steps")
	}

	sys := zoom.NewSystem()
	if err := sys.RegisterSpec(s); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadLog("x", s.Name(), parsed); err != nil {
		t.Fatal(err)
	}
	if got := sys.RunIDs(); len(got) != 1 || got[0] != "x" {
		t.Fatalf("RunIDs = %v", got)
	}
}

func TestFacadeSpecJSONAndDOT(t *testing.T) {
	s := zoom.Phylogenomics()
	data, err := zoom.EncodeSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := zoom.DecodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != s.Name() {
		t.Fatal("spec JSON round trip lost name")
	}
	if !strings.Contains(zoom.SpecDOT(s), "digraph") {
		t.Fatal("SpecDOT malformed")
	}
	joe, _ := zoom.BuildUserView(s, zoom.JoeRelevant())
	if !strings.Contains(zoom.ViewDOT("joe", joe), "M3, M4, M5") {
		t.Fatal("ViewDOT missing members")
	}
	if !strings.Contains(zoom.RunDOT(zoom.PhylogenomicsRun()), "S2:M3") {
		t.Fatal("RunDOT malformed")
	}
}

func TestFacadeSystemPersistence(t *testing.T) {
	sys := zoom.NewSystem()
	s := zoom.Phylogenomics()
	if err := sys.RegisterSpec(s); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadRun(zoom.PhylogenomicsRun()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := zoom.LoadSystem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.RunIDs()) != 1 || len(back.SpecNames()) != 1 {
		t.Fatal("persistence lost content")
	}
	joe, _ := zoom.BuildUserView(s, zoom.JoeRelevant())
	res, err := back.DeepProvenance("fig2", joe, "d447")
	if err != nil || res.NumData() == 0 {
		t.Fatalf("restored system cannot answer queries: %v", err)
	}
	if c := back.CacheCounters(); c.Hits != 0 || c.Misses != 1 {
		t.Fatalf("cache counters: %d/%d", c.Hits, c.Misses)
	}
}

func TestFacadeGeneratorAndDerivation(t *testing.T) {
	g := zoom.NewGenerator(2)
	classes := zoom.WorkflowClasses()
	if len(classes) != 4 || len(zoom.RunClasses()) != 3 {
		t.Fatal("workload profiles missing")
	}
	s := g.Workflow(classes[1], "w")
	rel := zoom.UBioRelevant(s)
	v, err := zoom.BuildUserView(s, rel)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := g.Run(s, zoom.RunClasses()[0], "r")
	if err != nil {
		t.Fatal(err)
	}
	sys := zoom.NewSystem()
	if err := sys.RegisterSpec(s); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadRun(r); err != nil {
		t.Fatal(err)
	}
	finals := r.FinalOutputs()
	res, err := sys.DeepProvenance("r", v, finals[0])
	if err != nil {
		t.Fatal(err)
	}
	ext := r.ExternalInputs()
	der, err := sys.DeepDerivation("r", v, ext[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.NumData() == 0 || der.NumData() == 0 {
		t.Fatal("empty results")
	}
	got, err := sys.Run("r")
	if err != nil || got.NumSteps() != r.NumSteps() {
		t.Fatal("Run accessor broken")
	}
	if sp, err := sys.Spec("w"); err != nil || sp.Name() != "w" {
		t.Fatal("Spec accessor broken")
	}
	if v2, err := sys.View("w", "nope"); err == nil {
		t.Fatalf("unknown view returned %v", v2)
	}
}
