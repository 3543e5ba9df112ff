package bench

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// testOptions is small enough for CI but large enough that the paper's
// qualitative shapes are statistically stable.
func testOptions() Options {
	o := Default()
	o.WorkflowsPerClass = 2
	o.RunsPerKind = 2
	o.Trials = 2
	o.ScaleSpecs = 6
	o.MaxSpecNodes = 300
	o.LargeRunCap = 1500
	return o
}

func cellF(t *testing.T, r *Report, row, col string) float64 {
	t.Helper()
	s, ok := r.Cell(row, col)
	if !ok {
		t.Fatalf("%s: missing cell (%s, %s)\n%s", r.ID, row, col, r)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s: cell (%s,%s) = %q not numeric", r.ID, row, col, s)
	}
	return v
}

func TestTable1Shape(t *testing.T) {
	rep := ExpTable1(testOptions())
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// Class1 averages ~12 modules (the real-workflow statistic).
	c1 := cellF(t, rep, "Class1", "avg modules")
	if c1 < 12 || c1 > 18 {
		t.Fatalf("Class1 avg modules = %v, want ~12", c1)
	}
	// Class4 must have by far the most loops.
	l4 := cellF(t, rep, "Class4", "avg loops")
	l2 := cellF(t, rep, "Class2", "avg loops")
	if l4 <= l2 {
		t.Fatalf("Class4 loops (%v) not above Class2 (%v)", l4, l2)
	}
	if l4 < 3 {
		t.Fatalf("Class4 avg loops = %v, want >= 3 (50%% loop pattern)", l4)
	}
}

func TestTable2Shape(t *testing.T) {
	rep := ExpTable2(testOptions())
	small := cellF(t, rep, "small", "avg steps")
	medium := cellF(t, rep, "medium", "avg steps")
	large := cellF(t, rep, "large", "avg steps")
	if !(small < medium && medium < large) {
		t.Fatalf("run sizes not increasing: %v %v %v", small, medium, large)
	}
	dSmall := cellF(t, rep, "small", "avg data")
	dLarge := cellF(t, rep, "large", "avg data")
	if dSmall >= dLarge {
		t.Fatalf("data volumes not increasing: %v vs %v", dSmall, dLarge)
	}
}

func TestScalabilityShape(t *testing.T) {
	rep := ExpScalability(testOptions())
	if len(rep.Rows) == 0 {
		t.Fatal("no scalability buckets")
	}
	for _, row := range rep.Rows {
		max, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad max ms %q", row[3])
		}
		// The paper's bound: every execution under 80 ms. The builder
		// runs on bitset rows and stays ~40x below it on a 2-CPU host.
		if max > 80 {
			t.Fatalf("builder took %v ms on bucket %s", max, row[0])
		}
	}
}

func TestOptimalityShape(t *testing.T) {
	rep := ExpOptimality(testOptions())
	if len(rep.Rows) != 11 {
		t.Fatalf("rows = %d, want 11 (0..100 step 10)", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		extra, _ := strconv.ParseFloat(row[3], 64)
		// "adding one relevant class creates only one new composite class":
		// the surplus beyond |R| stays tiny at every percentage.
		if extra > 2.5 {
			t.Fatalf("extra composites at %s%% = %v, want small", row[0], extra)
		}
		if extra < 0 {
			t.Fatalf("view smaller than |R| at %s%%", row[0])
		}
	}
	// At 100% relevant the view is exactly UAdmin: zero extra composites.
	if extra := cellF(t, rep, "100", "avg extra composites"); extra != 0 {
		t.Fatalf("100%% relevant must give zero extra composites, got %v", extra)
	}
}

func TestFig10Shape(t *testing.T) {
	rep := ExpFig10(testOptions())
	if len(rep.Rows) != 12 {
		t.Fatalf("rows = %d, want 4 classes x 3 kinds", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		admin, _ := strconv.ParseFloat(row[1], 64)
		bio, _ := strconv.ParseFloat(row[2], 64)
		bb, _ := strconv.ParseFloat(row[3], 64)
		if !(admin >= bio && bio >= bb) {
			t.Fatalf("%s: sizes not monotone in view coarseness: %v %v %v", row[0], admin, bio, bb)
		}
		if bb < 1 {
			t.Fatalf("%s: black box must at least show the root", row[0])
		}
	}
	// Loops hide most: Class4 medium/large UBio is a small fraction of
	// UAdmin (the paper reports up to 90% hidden).
	for _, key := range []string{"Class4/run2", "Class4/run3"} {
		ratio := cellF(t, rep, key, "UBio/UAdmin")
		if ratio > 0.5 {
			t.Fatalf("%s: UBio/UAdmin = %v, want <= 0.5 (loop hiding)", key, ratio)
		}
	}
}

func TestQueryTimeShape(t *testing.T) {
	rep := ExpQueryTime(testOptions())
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	small := cellF(t, rep, "small", "avg steps")
	large := cellF(t, rep, "large", "avg steps")
	if small >= large {
		t.Fatalf("step counts not increasing: %v vs %v", small, large)
	}
	for _, row := range rep.Rows {
		avg, _ := strconv.ParseFloat(row[3], 64)
		if avg <= 0 {
			t.Fatalf("%s: no time measured", row[0])
		}
	}
}

func TestViewSwitchShape(t *testing.T) {
	rep := ExpViewSwitch(testOptions())
	// On medium and large runs the warm switch must beat the cold query —
	// the paper's core interactivity claim.
	for _, kind := range []string{"medium", "large"} {
		cold := cellF(t, rep, kind, "avg cold ms")
		sw := cellF(t, rep, kind, "avg switch ms")
		if sw >= cold {
			t.Fatalf("%s: switch (%v ms) not cheaper than cold (%v ms)", kind, sw, cold)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	rep := ExpFig11(testOptions())
	if len(rep.Rows) != 11 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for col := 1; col <= 3; col++ {
		first, errF := strconv.ParseFloat(rep.Rows[0][col], 64)
		last, errL := strconv.ParseFloat(rep.Rows[len(rep.Rows)-1][col], 64)
		if errF != nil || errL != nil {
			t.Fatalf("column %d not numeric", col)
		}
		// Granularity effect: full relevance shows strictly more than none.
		if last <= first {
			t.Fatalf("column %d: size at 100%% (%v) not above 0%% (%v)", col, last, first)
		}
		// Broad monotonicity: at most a third of adjacent pairs may invert
		// (random views are noisy at small sample sizes).
		inversions := 0
		prev := first
		for i := 1; i < len(rep.Rows); i++ {
			cur, _ := strconv.ParseFloat(rep.Rows[i][col], 64)
			if cur < prev {
				inversions++
			}
			prev = cur
		}
		if inversions > 3 {
			t.Fatalf("column %d: %d inversions, series not broadly monotone\n%s",
				col, inversions, rep)
		}
	}
}

func TestReportRendering(t *testing.T) {
	rep := &Report{ID: "X", Title: "t", Headers: []string{"a", "b"}}
	rep.Append("k", 1.234)
	rep.Notes = append(rep.Notes, "hello")
	out := rep.String()
	for _, want := range []string{"== X: t ==", "k  1.23", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if _, ok := rep.Cell("k", "b"); !ok {
		t.Fatal("Cell lookup failed")
	}
	if _, ok := rep.Cell("k", "zzz"); ok {
		t.Fatal("unknown column found")
	}
	if _, ok := rep.Cell("zzz", "b"); ok {
		t.Fatal("unknown row found")
	}
}

func TestMinimumGapShape(t *testing.T) {
	rep := ExpMinimumGap(testOptions())
	// The fixture row is always present and always shows the gap.
	gapPct, ok := rep.Cell("figure7", "gap %")
	if !ok || gapPct != "100.00" {
		t.Fatalf("figure7 row wrong: %q %v\n%s", gapPct, ok, rep)
	}
	avg := cellF(t, rep, "figure7", "avg gap")
	if avg != 2 {
		t.Fatalf("figure7 gap = %v, want 2 (builder 5 vs minimum 3)", avg)
	}
	// Random rows exist for sizes 4-6 and never report negative gaps.
	for _, n := range []string{"4", "5", "6"} {
		if v := cellF(t, rep, n, "avg gap"); v < 0 {
			t.Fatalf("negative gap at size %s", n)
		}
	}
}

func TestAblationShape(t *testing.T) {
	rep := ExpAblation(testOptions())
	if len(rep.Rows) != 5 {
		t.Fatalf("rows = %d\n%s", len(rep.Rows), rep)
	}
	memo := cellF(t, rep, "A1 memoized fronts (builder)", "avg ms")
	per := cellF(t, rep, "A1 per-query BFS", "avg ms")
	if per <= memo {
		t.Fatalf("per-query BFS (%v ms) not slower than memoized (%v ms)", per, memo)
	}
	// Cold versus cached is pinned on the closure-cache counters: on the
	// integer path the timing difference is inside the noise.
	for row, want := range map[string]string{
		"A2 project, cached closure (paper)": fmt.Sprintf("%d hits / 0 misses", ablationQueryReps),
		"A2 project, cold closure":           fmt.Sprintf("0 hits / %d misses", ablationQueryReps),
	} {
		if got, ok := rep.Cell(row, "closure cache"); !ok || got != want {
			t.Fatalf("%s: closure cache = %q (found %v), want %q\n%s", row, got, ok, want, rep)
		}
	}
}
