// Package bench is the evaluation harness: one function per table or
// figure of the paper's Section V, each returning a Report whose rows
// mirror what the paper plots. Absolute numbers differ from the paper's
// 2008 Oracle testbed, but the shapes the experiments establish — view
// granularity vs. result size, builder scalability and optimality, cheap
// view switching — are asserted by the tests in this package.
package bench

import (
	"encoding/json"
	"fmt"
	"strings"
)

// ReportSchema is the version stamped into report JSON by MarshalJSON.
// Version 1 is the pre-stamp format (no Schema field — BENCH_P1.json as
// originally committed); version 2 added the stamp with
// no other shape change. Readers default a missing stamp to 1, so every
// historical artifact still round-trips.
const ReportSchema = 2

// Report is a rendered experiment result: a titled table plus free-form
// notes (the "expected shape" commentary).
type Report struct {
	Schema  int    `json:",omitempty"` // JSON schema version; 0 in memory = current
	ID      string // experiment id from DESIGN.md (T1, E1, F10, ...)
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// MarshalJSON writes the report with the current schema stamp (unless the
// report already carries an explicit version, which is preserved — that is
// what lets the round-trip test re-encode a legacy artifact unchanged).
func (r *Report) MarshalJSON() ([]byte, error) {
	type alias Report // drops the method set: no recursion
	a := alias(*r)
	if a.Schema == 0 {
		a.Schema = ReportSchema
	}
	return json.Marshal(a)
}

// UnmarshalJSON reads report JSON of any schema version: a missing stamp
// means a version-1 file.
func (r *Report) UnmarshalJSON(data []byte) error {
	type alias Report
	a := alias{Schema: 1}
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	*r = Report(a)
	return nil
}

// Append adds a row, formatting every cell with %v.
func (r *Report) Append(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	r.Rows = append(r.Rows, row)
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Headers)
	sep := make([]string, len(r.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the report as RFC-4180 CSV (headers first, no notes), so the
// figure series can be re-plotted with external tooling.
func (r *Report) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, r.Headers)
	for _, row := range r.Rows {
		writeCSVRow(&b, row)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, cell := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(cell, ",\"\n") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(cell, `"`, `""`))
			b.WriteByte('"')
		} else {
			b.WriteString(cell)
		}
	}
	b.WriteByte('\n')
}

// Cell looks a row up by its first column and returns the named column's
// value; it is how the tests assert on report contents.
func (r *Report) Cell(rowKey, column string) (string, bool) {
	col := -1
	for i, h := range r.Headers {
		if h == column {
			col = i
			break
		}
	}
	if col < 0 {
		return "", false
	}
	for _, row := range r.Rows {
		if len(row) > col && row[0] == rowKey {
			return row[col], true
		}
	}
	return "", false
}
