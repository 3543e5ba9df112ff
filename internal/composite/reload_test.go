package composite_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/warehouse"
	"repro/internal/wflog"
)

// TestExecutionOrdinalsSurviveReload is the regression for ordinals that
// depended on how the run was loaded. The log lists two parallel A -> B
// chains out of natural order (S3:A, S4:B, S1:A, S2:B); under the black-box
// view the string construction numbered the heap-ingested copy WORKFLOW@1 =
// [S3 S4] (log order) and its snapshot-reloaded twin WORKFLOW@1 = [S1 S2].
// Ordinals now follow the index's canonical order on both, and agree with
// the oracle on the reloaded twin, whose graph is in natural order.
func TestExecutionOrdinalsSurviveReload(t *testing.T) {
	s := spec.New("chains")
	s.MustAddModule(spec.Module{Name: "A"})
	s.MustAddModule(spec.Module{Name: "B"})
	s.MustAddEdge(spec.Input, "A")
	s.MustAddEdge("A", "B")
	s.MustAddEdge("B", spec.Output)
	b := wflog.NewBuilder()
	for i, chain := range [][2]string{{"S3", "S4"}, {"S1", "S2"}} {
		in, mid := fmt.Sprintf("d%d", 10*i+1), fmt.Sprintf("d%d", 10*i+2)
		b.Start(chain[0], "A")
		b.Reads(chain[0], in)
		b.Writes(chain[0], mid)
		b.Start(chain[1], "B")
		b.Reads(chain[1], mid)
		b.Writes(chain[1], fmt.Sprintf("d%d", 10*i+3))
	}
	heap, err := run.FromLog("ooo", "chains", b.Events())
	if err != nil {
		t.Fatal(err)
	}
	w := warehouse.New(0)
	if err := w.RegisterSpec(s); err != nil {
		t.Fatal(err)
	}
	if err := w.LoadRun(heap); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := w.SaveV3(&snap); err != nil {
		t.Fatal(err)
	}
	lw, err := warehouse.Load(&snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := lw.Run("ooo")
	if err != nil {
		t.Fatal(err)
	}

	bb, err := core.UBlackBox(s)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]*core.UserView{"blackbox": bb, "admin": core.UAdmin(s)} {
		mh, err := composite.Build(heap, v)
		if err != nil {
			t.Fatal(err)
		}
		mr, err := composite.Build(reloaded, v)
		if err != nil {
			t.Fatal(err)
		}
		if eh, er := mh.Executions(), mr.Executions(); !reflect.DeepEqual(eh, er) {
			t.Fatalf("%s: heap and reloaded executions differ:\n%+v\n%+v", name, eh, er)
		}
		composite.SameAsOracle(t, name+" reloaded", reloaded, v)
	}
	m, _ := composite.Build(heap, bb)
	first, ok := m.Execution("WORKFLOW@1")
	if !ok || !reflect.DeepEqual(first.Steps, []string{"S1", "S2"}) {
		t.Fatalf("WORKFLOW@1 = %+v, want steps [S1 S2]", first)
	}
}
