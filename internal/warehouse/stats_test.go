package warehouse

import (
	"bytes"
	"errors"
	"fmt"
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
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
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
	// The same log in other valid JSON spellings ingests to the same run:
	// the v3 bytes of both warehouses are equal.
	other := New(0)
	mustT(t, other.RegisterSpec(spec.Phylogenomics()))
	if n, err := other.LoadLogReader("streamed", "phylogenomics", bytes.NewReader(respell(events))); err != nil || n != len(events) {
		t.Fatalf("respelled log: %d events, %v", n, err)
	}
	var want, got bytes.Buffer
	mustT(t, w.SaveV3(&want))
	mustT(t, other.SaveV3(&got))
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("respelled log ingested to a different run")
	}
	// A malformed stream loads nothing.
	if _, err := w.LoadLogReader("bad", "phylogenomics", strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage stream accepted")
	}
	if _, err := w.Run("bad"); !errors.Is(err, ErrUnknownRun) {
		t.Fatal("half-loaded run visible")
	}
}

// respell writes events as JSON lines in none of wflog.Write's shape: keys
// reordered, whitespace inside, every id \u-escaped, CRLF line endings and
// blank lines between events.
func respell(events []wflog.Event) []byte {
	var b bytes.Buffer
	for i, e := range events {
		extra := ""
		if e.Module != "" {
			extra = `, "module" : ` + escapeAll(e.Module)
		}
		if e.Data != "" {
			extra = `,"data":` + escapeAll(e.Data)
		}
		fmt.Fprintf(&b, "{ \"step\": %s%s, \"kind\":%q , \"seq\": %d }\r\n", escapeAll(e.Step), extra, e.Kind, e.Seq)
		if i%3 == 0 {
			b.WriteString("\r\n\n")
		}
	}
	return b.Bytes()
}

// escapeAll quotes s as a JSON string with every character \u-escaped.
func escapeAll(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		fmt.Fprintf(&b, `\u%04x`, r)
	}
	b.WriteByte('"')
	return b.String()
}

// TestIngestErrorNamesLine: an event the loader rejects is reported under
// its log line, not its ordinal among the events, with the sentinel kept.
func TestIngestErrorNamesLine(t *testing.T) {
	start := `{"seq":1,"kind":"start","step":"S1","module":"M"}`
	for _, tc := range []struct {
		log, want string
		sentinel  error
	}{
		{
			start + "\n\n\n" + `{"seq":2,"kind":"start","step":"S1","module":"M"}` + "\n",
			`wflog: line 4: event 1: duplicate start for step "S1": wflog: malformed event`,
			wflog.ErrBadEvent,
		},
		{
			start + "\n" + `{"seq":3,"kind":"write","step":"S1","data":"d1"}` + "\n\n" + `{"seq":2,"kind":"read","step":"S1","data":"d2"}` + "\n",
			`wflog: line 4: event 2: seq 2 after 3: wflog: events out of order`,
			wflog.ErrOutOfOrder,
		},
		{
			"\n" + `{"seq":1,"kind":"read","step":"S1","data":"d1"}` + "\n",
			`wflog: line 2: event 0: read before start of step "S1": wflog: events out of order`,
			wflog.ErrOutOfOrder,
		},
	} {
		w := New(0)
		mustT(t, w.RegisterSpec(spec.Phylogenomics()))
		_, err := w.LoadLogReader("r", "phylogenomics", strings.NewReader(tc.log))
		if err == nil || err.Error() != tc.want || !errors.Is(err, tc.sentinel) {
			t.Errorf("err = %v, want %q wrapping %v", err, tc.want, tc.sentinel)
		}
	}
}
