package warehouse

import (
	"context"
	"errors"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/run"
	"repro/internal/spec"
)

// closureKey renders a closure's membership canonically so two closures can
// be compared for exact equality regardless of representation.
func closureKey(c *Closure) string {
	render := func(m map[string]bool) string {
		ids := make([]string, 0, len(m))
		for id := range m {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		return strings.Join(ids, ",")
	}
	steps, data := closureSets(c)
	return "s{" + render(steps) + "} d{" + render(data) + "}"
}

// labeledWarehouse is loadedWarehouse with the label index on.
func labeledWarehouse(t testing.TB) *Warehouse {
	t.Helper()
	w := loadedWarehouse(t)
	w.SetLabelIndex(true)
	return w
}

// TestLabelBackfillAndQuery checks the basic lifecycle: enabling labels on
// an already-loaded warehouse builds them, label-backed answers match the
// BFS answers, and the counters tell the story.
func TestLabelBackfillAndQuery(t *testing.T) {
	bfs := loadedWarehouse(t)
	w := labeledWarehouse(t)
	if !w.LabelIndexEnabled() {
		t.Fatal("LabelIndexEnabled = false after SetLabelIndex(true)")
	}
	if w.RunLabels("fig2") == nil {
		t.Fatal("no labels built for fig2")
	}
	if got := w.LabelCounters().Builds; got != 1 {
		t.Fatalf("Builds = %d, want 1", got)
	}
	for _, d := range []string{"d447", "d413", "d410"} {
		want, err := bfs.DeepProvenance("fig2", d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.DeepProvenance("fig2", d)
		if err != nil {
			t.Fatal(err)
		}
		if closureKey(got) != closureKey(want) {
			t.Fatalf("label provenance of %s:\n  %s\nwant\n  %s", d, closureKey(got), closureKey(want))
		}
		wantD, _ := bfs.DeepDerivation("fig2", d)
		gotD, err := w.DeepDerivation("fig2", d)
		if err != nil {
			t.Fatal(err)
		}
		if closureKey(gotD) != closureKey(wantD) {
			t.Fatalf("label derivation of %s:\n  %s\nwant\n  %s", d, closureKey(gotD), closureKey(wantD))
		}
	}
	lc := w.LabelCounters()
	if lc.Hits == 0 || lc.Fallbacks != 0 {
		t.Fatalf("LabelCounters = %+v, want hits > 0 and no fallbacks", lc)
	}
	st := w.Stats()
	if st.Labels.LabeledRuns != 1 || st.Labels.Chains == 0 || st.Labels.LabelBytes == 0 {
		t.Fatalf("Stats.Labels = %+v", st.Labels)
	}
	if !strings.Contains(st.String(), "labels[") {
		t.Fatalf("Stats.String() lacks labels section: %s", st)
	}
	// A per-request BFS override must bypass the labels without counting a
	// fallback — it never requested them.
	before := w.LabelCounters()
	c, o, err := w.DeepProvenanceStrategyCtx(context.Background(), "fig2", "d430", false, StrategyBFS)
	if err != nil || c == nil {
		t.Fatal(err)
	}
	if o.Outcome == OutcomeMiss && o.Strategy != strategyBFS {
		t.Fatalf("StrategyBFS miss reported strategy %q", o.Strategy)
	}
	after := w.LabelCounters()
	if after.Fallbacks != before.Fallbacks {
		t.Fatal("StrategyBFS counted a label fallback")
	}
}

// TestLabelFallbackAccounting pins the fallback contract: every
// label-requested computation that cannot be served by labels is counted,
// so Hits + Fallbacks always equals the label-requested computations.
func TestLabelFallbackAccounting(t *testing.T) {
	w := loadedWarehouse(t) // labels off
	// Per-request label strategy against a label-less run: correct answer,
	// counted fallback.
	want, _ := w.DeepProvenance("fig2", "d447")
	w.ResetCache()
	c, o, err := w.DeepProvenanceStrategyCtx(context.Background(), "fig2", "d447", false, StrategyLabels)
	if err != nil {
		t.Fatal(err)
	}
	if closureKey(c) != closureKey(want) {
		t.Fatal("fallback answer differs from BFS answer")
	}
	if o.Outcome != OutcomeMiss || o.Strategy != strategyBFS {
		t.Fatalf("fallback observation = %+v, want miss via bfs", o)
	}
	if lc := w.LabelCounters(); lc.Hits != 0 || lc.Fallbacks != 1 {
		t.Fatalf("LabelCounters = %+v, want exactly one fallback", lc)
	}
	// Disabling labels after a build drops them: the next auto query is
	// BFS and counts nothing; a label-requested one counts a fallback.
	w.SetLabelIndex(true)
	if w.RunLabels("fig2") == nil {
		t.Fatal("labels not built")
	}
	w.SetLabelIndex(false)
	if w.RunLabels("fig2") != nil {
		t.Fatal("labels survived SetLabelIndex(false)")
	}
	w.ResetCache()
	before := w.LabelCounters()
	if _, err := w.DeepProvenance("fig2", "d447"); err != nil {
		t.Fatal(err)
	}
	if lc := w.LabelCounters(); lc.Fallbacks != before.Fallbacks {
		t.Fatal("auto query with labels off counted a fallback")
	}
	if _, err := w.DeepDerivationStrategy("fig2", "d413", StrategyLabels); err != nil {
		t.Fatal(err)
	}
	if lc := w.LabelCounters(); lc.Fallbacks != before.Fallbacks+1 {
		t.Fatalf("LabelCounters = %+v, want one more fallback", lc)
	}
}

// TestConcurrentLabelChurn is the staleness regression test: dropRun and
// re-ingest race with label-backed deep-provenance queries under -race.
// Every answer must match the reference closure of one of the two run
// variants that ever inhabit the id — a stale label index consulted across
// a swap would produce a set matching neither — and at the quiescent end
// the label counters must account for every label-requested computation
// and the surviving label set must be the one built over the current index
// (the generation fence kept everything else out of the cache).
func TestConcurrentLabelChurn(t *testing.T) {
	s := spec.Phylogenomics()
	variantA := run.Figure2()
	variantB, _, err := run.Execute(s, run.Config{RunID: "fig2", Seed: 99})
	if err != nil {
		t.Fatal(err)
	}

	// Reference closures per variant, computed by the plain BFS path on
	// single-variant warehouses. Each variant's probe data id is its
	// naturally-last final output.
	probe := func(r *run.Run) string {
		outs := r.FinalOutputs()
		return outs[len(outs)-1]
	}
	ref := func(r *run.Run, d string) string {
		ww := New(0)
		if err := ww.RegisterSpec(spec.Phylogenomics()); err != nil {
			t.Fatal(err)
		}
		if err := ww.LoadRun(r); err != nil {
			t.Fatal(err)
		}
		c, err := ww.DeepProvenance("fig2", d)
		if err != nil {
			t.Fatal(err)
		}
		return closureKey(c)
	}
	dA, dB := probe(variantA), probe(variantB)
	refs := map[string]map[string]bool{
		dA: {ref(variantA, dA): true},
		dB: {ref(variantB, dB): true},
	}
	// A probe id may exist in both variants (with different provenance);
	// admit the other variant's answer for it too, if defined.
	if variantB.HasData(dA) {
		refs[dA][ref(variantB, dA)] = true
	}
	if variantA.HasData(dB) {
		refs[dB][ref(variantA, dB)] = true
	}

	w := New(0)
	if err := w.RegisterSpec(s); err != nil {
		t.Fatal(err)
	}
	w.SetLabelIndex(true)
	if err := w.LoadRun(variantA); err != nil {
		t.Fatal(err)
	}

	// servedMisses counts the successful closure computations observed by
	// the queriers — the label-requested computations the label counters
	// must account for (failed computes never reach the strategy dispatch).
	var servedMisses atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := dA
			if g%2 == 1 {
				d = dB
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				c, o, err := w.DeepProvenanceObserved("fig2", d, false)
				if err != nil {
					if !errors.Is(err, ErrUnknownRun) && !errors.Is(err, ErrUnknownData) {
						t.Errorf("unexpected error: %v", err)
						return
					}
					continue
				}
				if o.Outcome == OutcomeMiss {
					servedMisses.Add(1)
					if o.Strategy != strategyLabels && o.Strategy != strategyBFS {
						t.Errorf("miss served by unexpected strategy %q", o.Strategy)
						return
					}
				}
				if !refs[d][closureKey(c)] {
					t.Errorf("closure of %s matches neither variant: %s", d, closureKey(c))
					return
				}
			}
		}(g)
	}
	variants := []*run.Run{variantB, variantA}
	for i := 0; i < 40; i++ {
		if err := w.DropRun("fig2"); err != nil {
			t.Fatal(err)
		}
		if err := w.LoadRun(variants[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// Quiescent accounting: the toggle was on throughout, so every
	// *successful* closure computation was label-requested and must be
	// counted as exactly one hit or fallback (failed computes — unknown
	// run/data during a swap window — never reach the strategy dispatch).
	lc := w.LabelCounters()
	if lc.Hits+lc.Fallbacks != servedMisses.Load() {
		t.Fatalf("label accounting leak: hits=%d + fallbacks=%d != served misses=%d",
			lc.Hits, lc.Fallbacks, servedMisses.Load())
	}
	// The surviving labels are the ones built over the current index.
	l, ix := w.RunLabels("fig2"), w.RunIndex("fig2")
	if l == nil || ix == nil || l.Index() != ix {
		t.Fatalf("stale or missing labels after churn: labels=%p index=%p", l, ix)
	}
	c, err := w.DeepProvenance("fig2", dA)
	if err != nil || !refs[dA][closureKey(c)] {
		t.Fatalf("post-churn query broken: %v", err)
	}
}

// TestConcurrentLabelBackfillToggle races SetLabelIndex flips against
// queries and churn: whatever interleaving happens, a consulted label set
// is always the one built over the run's current index (answers stay
// correct), and the final state is internally consistent.
func TestConcurrentLabelBackfillToggle(t *testing.T) {
	w := loadedWarehouse(t)
	want, err := w.DeepProvenance("fig2", "d447")
	if err != nil {
		t.Fatal(err)
	}
	wantKey := closureKey(want)
	w.ResetCache()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c, err := w.DeepProvenance("fig2", "d447")
				if err != nil {
					if !errors.Is(err, ErrUnknownRun) {
						t.Errorf("unexpected error: %v", err)
						return
					}
					continue
				}
				if closureKey(c) != wantKey {
					t.Errorf("wrong closure: %s", closureKey(c))
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			w.SetLabelIndex(i%2 == 0)
		}
	}()
	for i := 0; i < 30; i++ {
		if err := w.DropRun("fig2"); err != nil {
			t.Fatal(err)
		}
		if err := w.LoadRun(run.Figure2()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if l, ix := w.RunLabels("fig2"), w.RunIndex("fig2"); l != nil && l.Index() != ix {
		t.Fatal("final state carries labels for a foreign index")
	}
	c, err := w.DeepProvenance("fig2", "d447")
	if err != nil || closureKey(c) != wantKey {
		t.Fatalf("post-toggle query broken: %v", err)
	}
}

// TestLabelDeclineWideRunFallback loads a run the label builder declines —
// 4097 mutually independent steps, one more parallel chain than the budget
// allows — and checks the query path: correct BFS answer, fallback
// counted, no labels in stats. (Width is measured on the induced step
// graph; a single step with thousands of inputs labels just fine.)
func TestLabelDeclineWideRunFallback(t *testing.T) {
	const parallel = 4097 // maxLabelChains + 1
	s := spec.New("wide")
	s.MustAddModule(spec.Module{Name: "W"})
	s.MustAddEdge(spec.Input, "W")
	s.MustAddEdge("W", spec.Output)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	r := run.NewRun("wide1", "wide")
	for i := 0; i < parallel; i++ {
		si := "S" + itoa(i)
		if err := r.AddStep(si, "W"); err != nil {
			t.Fatal(err)
		}
		if err := r.AddFlow(spec.Input, si, []string{"w" + itoa(i)}); err != nil {
			t.Fatal(err)
		}
		if err := r.AddFlow(si, spec.Output, []string{"o" + itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}

	w := New(0)
	if err := w.RegisterSpec(s); err != nil {
		t.Fatal(err)
	}
	w.SetLabelIndex(true)
	if err := w.LoadRun(r); err != nil {
		t.Fatal(err)
	}
	if w.RunLabels("wide1") != nil {
		t.Fatalf("label builder accepted a %d-parallel-step run", parallel)
	}
	if lc := w.LabelCounters(); lc.Builds != 0 {
		t.Fatalf("Builds = %d for a declined run", lc.Builds)
	}
	c, err := w.DeepProvenance("wide1", "o0")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumSteps() != 1 || c.NumData() != 2 {
		t.Fatalf("closure = %d steps, %d data", c.NumSteps(), c.NumData())
	}
	if lc := w.LabelCounters(); lc.Hits != 0 || lc.Fallbacks != 1 {
		t.Fatalf("LabelCounters = %+v, want one fallback", lc)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
