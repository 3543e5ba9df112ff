package bench

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestReportJSONRoundTrip pins the schema stamp: fresh reports serialize
// with the current version, every field survives a round trip, and a
// report that already carries an explicit version keeps it.
func TestReportJSONRoundTrip(t *testing.T) {
	rep := &Report{
		ID:      "P2",
		Title:   "labels vs bfs",
		Headers: []string{"run kind", "speedup"},
		Notes:   []string{"a note"},
	}
	rep.Append("large", 2.5)
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"Schema":2`) {
		t.Fatalf("fresh report not stamped with schema %d: %s", ReportSchema, raw)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != ReportSchema {
		t.Fatalf("Schema = %d after round trip, want %d", back.Schema, ReportSchema)
	}
	back.Schema = 0 // the stamp is the only field the encoder injects
	rt, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(rt) != string(raw) {
		t.Fatalf("round trip changed the report:\n  %s\nvs\n  %s", rt, raw)
	}
}

// TestReportJSONLegacy reads a version-1 artifact — the shape of
// BENCH_P1.json as originally committed, no Schema field
// — and checks it decodes with the defaulted version and re-encodes with
// the version preserved (a rewriter must not silently upgrade history).
func TestReportJSONLegacy(t *testing.T) {
	legacy := `{
  "ID": "L1",
  "Title": "warehouse load",
  "Headers": ["kind", "ms"],
  "Rows": [["small", "1.00"]],
  "Notes": null
}`
	var rep Report
	if err := json.Unmarshal([]byte(legacy), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != 1 {
		t.Fatalf("legacy Schema = %d, want 1", rep.Schema)
	}
	if rep.ID != "L1" || len(rep.Rows) != 1 || rep.Rows[0][1] != "1.00" {
		t.Fatalf("legacy decode mangled fields: %+v", rep)
	}
	re, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(re), `"Schema":1`) {
		t.Fatalf("re-encoding a legacy report lost its version: %s", re)
	}
	// A slice of reports (the zoombench -json payload) round-trips too.
	many := []*Report{&rep}
	raw, err := json.MarshalIndent(many, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var backs []*Report
	if err := json.Unmarshal(raw, &backs); err != nil {
		t.Fatal(err)
	}
	if len(backs) != 1 || backs[0].Schema != 1 || backs[0].Title != rep.Title {
		t.Fatalf("slice round trip broke: %+v", backs[0])
	}
}
