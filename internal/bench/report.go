// Package bench is the evaluation harness: one function per table or
// figure of the paper's Section V, each returning a Report whose rows
// mirror what the paper plots. Absolute numbers differ from the paper's
// 2008 Oracle testbed, but the shapes the experiments establish — view
// granularity vs. result size, builder scalability and optimality, cheap
// view switching — are asserted by the tests in this package.
package bench

import (
	"fmt"
	"strings"
)

// Report is a rendered experiment result: a titled table plus free-form
// notes (the "expected shape" commentary).
type Report struct {
	ID      string // experiment id from DESIGN.md (T1, E1, F10, ...)
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
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
