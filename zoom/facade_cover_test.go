package zoom_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/zoom"
)

// TestFacadeAdminSurface touches the operational surface of the facade:
// diagnostics, stats, drop, streaming ingestion, exports and the harness
// entry points.
func TestFacadeAdminSurface(t *testing.T) {
	s := zoom.Phylogenomics()

	// Diagnostics on a deliberately bad view.
	bad, err := zoom.NewUserView(s, map[string][]string{
		"M12": {"M1", "M2"},
		"M10": {"M3", "M4", "M5"},
		"M9":  {"M6", "M7", "M8"},
	})
	if err != nil {
		t.Fatal(err)
	}
	finds := zoom.DiagnoseView(bad, zoom.JoeRelevant())
	if len(finds) == 0 {
		t.Fatal("known-bad grouping diagnosed as clean")
	}
	joe, _ := zoom.BuildUserView(s, zoom.JoeRelevant())
	if finds := zoom.DiagnoseView(joe, zoom.JoeRelevant()); len(finds) != 0 {
		t.Fatalf("clean view diagnosed: %v", finds)
	}
	if err := zoom.CheckView(joe, []string{"M2", "nope"}); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("CheckView accepted a relevant module outside the spec: %v", err)
	}

	// Stats / streaming ingestion / drop.
	sys := zoom.NewSystem()
	if err := sys.RegisterSpec(s); err != nil {
		t.Fatal(err)
	}
	events, err := zoom.PhylogenomicsRun().ToLog()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := zoom.WriteLog(&buf, events); err != nil {
		t.Fatal(err)
	}
	n, err := sys.IngestLogStream("streamed", s.Name(), &buf)
	if err != nil || n != len(events) {
		t.Fatalf("IngestLogStream: %d, %v", n, err)
	}
	st := sys.Stats()
	if st.Runs != 1 || st.Steps != 10 {
		t.Fatalf("Stats = %+v", st)
	}
	if err := sys.DropRun("streamed"); err != nil {
		t.Fatal(err)
	}
	if sys.Stats().Runs != 0 {
		t.Fatal("DropRun left the run behind")
	}

	// Exports.
	if err := sys.LoadRun(zoom.PhylogenomicsRun()); err != nil {
		t.Fatal(err)
	}
	res, err := sys.DeepProvenance("fig2", joe, "d447")
	if err != nil {
		t.Fatal(err)
	}
	prov, err := zoom.PROVJSON(res)
	if err != nil || !strings.Contains(string(prov), "wasGeneratedBy") {
		t.Fatalf("PROVJSON: %v", err)
	}
	if !strings.Contains(zoom.SpecGraphML(s), "<graphml") {
		t.Fatal("SpecGraphML malformed")
	}

	// Query forms listing.
	if forms := zoom.QueryForms(); len(forms) < 8 {
		t.Fatalf("QueryForms = %v", forms)
	}

	// Harness entry points (tiny scale).
	o := zoom.DefaultBench()
	if full := zoom.FullBench(); full.ScaleSpecs <= o.ScaleSpecs {
		t.Fatal("FullBench not larger than DefaultBench")
	}
	o.WorkflowsPerClass, o.RunsPerKind, o.Trials = 1, 1, 1
	o.ScaleSpecs, o.MaxSpecNodes, o.LargeRunCap = 2, 120, 300
	reports := zoom.RunExperiments(o)
	if want := len(zoom.BenchExperiments()); len(reports) != want {
		t.Fatalf("RunExperiments returned %d reports, want %d", len(reports), want)
	}

	// LoadSystem rejects garbage.
	if _, err := zoom.LoadSystem(strings.NewReader("{")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}
