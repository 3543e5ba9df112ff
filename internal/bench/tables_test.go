package bench

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden from this run")

const tablesGolden = "testdata/tables.golden"

// timingHeaders name the columns whose cells are wall-clock measurements
// (or ratios of two of them): they move with the host, its load and the
// scheduler, so the golden file holds "~" in their place. Every other cell
// is a function of the seed and the generator alone.
var timingHeaders = map[string]bool{
	"avg ms":        true,
	"max ms":        true,
	"avg cold ms":   true,
	"avg switch ms": true,
	"speedup":       true,
	"vs baseline":   true,
}

// TestPaperTablesUnchanged runs the whole experiment registry at Default()
// and compares every deterministic cell with testdata/tables.golden: the
// paper's Tables I-II, RelevUserViewBuilder's optimality, Figures 10-11 and
// Figure 7's minimal-vs-minimum gap whole, and the count columns of the
// timed experiments. A change that moves one of the paper's numbers fails
// here, naming the table. `go test ./internal/bench -run
// '^TestPaperTablesUnchanged$' -update` (or `make tables`) rewrites the
// file.
func TestPaperTablesUnchanged(t *testing.T) {
	var b strings.Builder
	for _, exp := range Experiments() {
		rep := exp.Run(Default())
		for _, row := range rep.Rows {
			for i, h := range rep.Headers {
				if timingHeaders[h] && i < len(row) {
					row[i] = "~"
				}
			}
		}
		b.WriteString(rep.String())
		b.WriteByte('\n')
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(tablesGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(tablesGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gotT, wantT := tableSections(got), tableSections(string(want))
	for id, w := range wantT {
		if g, ok := gotT[id]; !ok {
			t.Errorf("table %s is in %s but the registry no longer produces it", id, tablesGolden)
		} else if g != w {
			t.Errorf("table %s differs from %s\ngot:\n%s\nwant:\n%s", id, tablesGolden, g, w)
		}
	}
	for id := range gotT {
		if _, ok := wantT[id]; !ok {
			t.Errorf("table %s is not in %s", id, tablesGolden)
		}
	}
	if !t.Failed() {
		t.Errorf("the tables match %s but their order or spacing does not", tablesGolden)
	}
}

// tableSections splits rendered reports into their text keyed by report
// id, read from each "== ID: Title ==" line.
func tableSections(s string) map[string]string {
	out := make(map[string]string)
	for _, sec := range strings.SplitAfter(s, "\n\n") {
		if id, _, ok := strings.Cut(strings.TrimPrefix(sec, "== "), ":"); ok && strings.HasPrefix(sec, "== ") {
			out[id] = sec
		}
	}
	return out
}
