package warehouse

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/wflog"
)

func TestStats(t *testing.T) {
	w := loadedWarehouse(t)
	s, _ := w.Spec("phylogenomics")
	joe, _ := core.BuildRelevant(s, spec.PhyloRelevantJoe())
	mustT(t, w.RegisterView("joe", joe))
	if _, err := w.DeepProvenance("fig2", "d447"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.DeepProvenance("fig2", "d447"); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Specs != 1 || st.Views != 1 || st.Runs != 1 {
		t.Fatalf("catalog counts wrong: %+v", st)
	}
	if st.Steps != 10 || st.DataObjects != 246 || st.FlowEdges != 13 {
		t.Fatalf("run counts wrong: %+v", st)
	}
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("cache counters wrong: %+v", st)
	}
	if !strings.Contains(st.String(), "runs=1") {
		t.Fatalf("Stats.String = %s", st)
	}
}

func TestDropRun(t *testing.T) {
	w := loadedWarehouse(t)
	if _, err := w.DeepProvenance("fig2", "d447"); err != nil {
		t.Fatal(err)
	}
	if err := w.DropRun("fig2"); err != nil {
		t.Fatal(err)
	}
	if err := w.DropRun("fig2"); !errors.Is(err, ErrUnknownRun) {
		t.Fatalf("double drop: %v", err)
	}
	if _, err := w.Run("fig2"); !errors.Is(err, ErrUnknownRun) {
		t.Fatal("run still present")
	}
	// The cached closure must not resurrect the dropped run.
	if _, err := w.DeepProvenance("fig2", "d447"); !errors.Is(err, ErrUnknownRun) {
		t.Fatalf("query on dropped run: %v", err)
	}
	// Reloading the same id works (the cache entry is gone).
	mustT(t, w.LoadRun(run.Figure2()))
	c, err := w.DeepProvenance("fig2", "d447")
	if err != nil || c.NumSteps() != 10 {
		t.Fatalf("reloaded run broken: %v", err)
	}
}

// TestIngestLogStream: a streamed log (LoadLogReader) loads as a run only
// once the whole stream has validated.
func TestIngestLogStream(t *testing.T) {
	w := New(0)
	mustT(t, w.RegisterSpec(spec.Phylogenomics()))
	events, err := run.Figure2().ToLog()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wflog.Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	n, err := w.LoadLogReader("streamed", "phylogenomics", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(events) {
		t.Fatalf("ingested %d events, want %d", n, len(events))
	}
	r, err := w.Run("streamed")
	if err != nil || r.NumSteps() != 10 {
		t.Fatalf("streamed run wrong: %v", err)
	}
	// A malformed stream loads nothing.
	if _, err := w.LoadLogReader("bad", "phylogenomics", strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage stream accepted")
	}
	if _, err := w.Run("bad"); !errors.Is(err, ErrUnknownRun) {
		t.Fatal("half-loaded run visible")
	}
}
