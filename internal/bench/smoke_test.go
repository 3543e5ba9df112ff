package bench

import "testing"

// TestExperimentsRegistryIDs runs the whole registry at smoke scale: every
// experiment returns a report, every registry ID equals the ID of the
// report it returns, and no ID is registered twice.
func TestExperimentsRegistryIDs(t *testing.T) {
	o := Default()
	o.WorkflowsPerClass = 1
	o.RunsPerKind = 1
	o.Trials = 1
	o.ScaleSpecs = 4
	o.MaxSpecNodes = 200
	o.LargeRunCap = 500
	reports := RunAll(o)
	if want := len(Experiments()); len(reports) != want {
		t.Fatalf("expected %d reports, got %d", want, len(reports))
	}
	ids := make(map[string]bool, len(reports))
	for i, r := range reports {
		t.Log("\n" + r.String())
		if got, want := r.ID, Experiments()[i].ID; got != want {
			t.Fatalf("registry id %q produced report id %q", want, got)
		}
		if ids[r.ID] {
			t.Fatalf("duplicate report id %q", r.ID)
		}
		ids[r.ID] = true
	}
}
