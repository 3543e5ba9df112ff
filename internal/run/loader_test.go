package run

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/spec"
	"repro/internal/wflog"
)

func TestFromLogBasic(t *testing.T) {
	b := wflog.NewBuilder()
	b.Start("S1", "M1")
	b.Reads("S1", "d1")
	b.Writes("S1", "d2")
	b.Start("S2", "M2")
	b.Reads("S2", "d2")
	b.Writes("S2", "d3")
	r, err := FromLog("r1", "s", b.Events())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if p, _ := r.Producer("d2"); p != "S1" {
		t.Fatalf("producer(d2) = %s", p)
	}
	if !r.IsExternal("d1") {
		t.Fatal("d1 should be external (read but never written)")
	}
	if got := r.FinalOutputs(); !reflect.DeepEqual(got, []string{"d3"}) {
		t.Fatalf("finals = %v (d3 written, never read)", got)
	}
	if r.DataOn("S1", "S2") == nil {
		t.Fatal("flow S1 -> S2 not reconstructed")
	}
}

func TestFromLogRejectsTwoWriters(t *testing.T) {
	b := wflog.NewBuilder()
	b.Start("S1", "M1")
	b.Writes("S1", "d1")
	b.Start("S2", "M2")
	b.Writes("S2", "d1")
	if _, err := FromLog("r", "s", b.Events()); !errors.Is(err, ErrTwoProducers) {
		t.Fatalf("err = %v", err)
	}
}

func TestFromLogRejectsInvalidSequence(t *testing.T) {
	events := []wflog.Event{{Seq: 1, Kind: wflog.KindRead, Step: "S1", Data: "d1"}}
	if _, err := FromLog("r", "s", events); !errors.Is(err, wflog.ErrOutOfOrder) {
		t.Fatalf("err = %v", err)
	}
}

func TestToLogFromLogRoundTrip(t *testing.T) {
	orig := Figure2()
	events, err := orig.ToLog()
	if err != nil {
		t.Fatal(err)
	}
	if err := wflog.ValidateSequence(events); err != nil {
		t.Fatal(err)
	}
	back, err := FromLog(orig.ID(), orig.SpecName(), events)
	if err != nil {
		t.Fatal(err)
	}
	assertRunsEquivalent(t, orig, back)
}

func TestLogSerializationRoundTrip(t *testing.T) {
	orig := Figure2()
	events, _ := orig.ToLog()
	var buf bytes.Buffer
	if err := wflog.Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	parsed, err := wflog.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromLog(orig.ID(), orig.SpecName(), parsed)
	if err != nil {
		t.Fatal(err)
	}
	assertRunsEquivalent(t, orig, back)
}

func TestFromLogMultiSourceReads(t *testing.T) {
	// One step reading from two producers plus external input yields three
	// incoming edges.
	b := wflog.NewBuilder()
	b.Start("S1", "M1")
	b.Writes("S1", "d1")
	b.Start("S2", "M2")
	b.Writes("S2", "d2")
	b.Start("S3", "M3")
	b.Reads("S3", "d1", "d2", "dX")
	b.Writes("S3", "d3")
	r, err := FromLog("r", "s", b.Events())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().MaxFanIn; got != 3 {
		t.Fatalf("in-degree of S3 = %d, want 3", got)
	}
	if got := r.DataOn(spec.Input, "S3"); !reflect.DeepEqual(got, []string{"dX"}) {
		t.Fatalf("external edge data = %v", got)
	}
}

func TestExecutedLogsReplayAcrossConfigs(t *testing.T) {
	s := spec.Phylogenomics()
	for seed := int64(0); seed < 5; seed++ {
		r, events, err := Execute(s, Config{RunID: "x", Seed: seed, LoopIter: [2]int{1, 5}, UserInput: [2]int{1, 4}, DataPerStep: [2]int{1, 4}})
		if err != nil {
			t.Fatal(err)
		}
		back, err := FromLog("x", s.Name(), events)
		if err != nil {
			t.Fatal(err)
		}
		assertRunsEquivalent(t, r, back)
	}
}
