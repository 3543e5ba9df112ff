package provenance

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/warehouse"
)

// mmapTwinEngines returns two engines over identical contents: one on the
// original heap-resident warehouse, one on a v3 snapshot of it opened
// through the mmap path (runs materialize lazily as the queries touch
// them). Any divergence is the snapshot round-trip's fault.
func mmapTwinEngines(t *testing.T, build func(w *warehouse.Warehouse)) (heap, mapped *Engine, closeMapped func()) {
	t.Helper()
	wh := warehouse.New(0)
	build(wh)
	path := filepath.Join(t.TempDir(), "wh.v3")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := wh.SaveV3(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wm, err := warehouse.OpenV3(path, 0, warehouse.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(wh), NewEngine(wm), func() {
		if err := wm.Close(); err != nil {
			t.Errorf("close mapped warehouse: %v", err)
		}
	}
}

// TestConcurrentMmapServeEquivalence pushes the same query burst — one
// batch per (run, view), all at once — through a heap engine and its
// v3-mmap twin and compares every answer. The concurrent burst is the interesting part for
// the mapped side: many goroutines race to materialize the same runs while
// others are already mid-query. Runs under -race in CI (name matches the
// Concurrent pattern).
func TestConcurrentMmapServeEquivalence(t *testing.T) {
	s := spec.Phylogenomics()
	fig2 := run.Figure2()
	g := gen.NewGenerator(424242)
	gs := g.Workflow(gen.Classes()[0], "genwf")
	var genRuns []*run.Run
	for i := 0; i < 3; i++ {
		r, _, err := g.Run(gs, gen.RunClasses()[0], fmt.Sprintf("gen%d", i))
		if err != nil {
			t.Fatal(err)
		}
		genRuns = append(genRuns, r)
	}

	build := func(w *warehouse.Warehouse) {
		if err := w.RegisterSpec(s); err != nil {
			t.Fatal(err)
		}
		if err := w.RegisterSpec(gs); err != nil {
			t.Fatal(err)
		}
		if err := w.LoadRun(fig2); err != nil {
			t.Fatal(err)
		}
		for _, r := range genRuns {
			if err := w.LoadRun(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	eh, em, closeMapped := mmapTwinEngines(t, build)
	defer closeMapped()

	joe, err := core.BuildRelevant(s, spec.PhyloRelevantJoe())
	if err != nil {
		t.Fatal(err)
	}
	views := map[string]map[string]*core.UserView{
		fig2.ID(): {"admin": core.UAdmin(s), "joe": joe},
	}
	genViews := map[string]*core.UserView{"admin": core.UAdmin(gs)}
	if ubio, err := core.BuildRelevant(gs, gen.UBioRelevant(gs)); err == nil {
		genViews["ubio"] = ubio
	}
	for _, r := range genRuns {
		views[r.ID()] = genViews
	}

	// One batch per (run, view), every batch at once.
	type group struct {
		run  string
		view *core.UserView
		data []string
	}
	rng := rand.New(rand.NewSource(424243))
	var groups []group
	for _, r := range append([]*run.Run{fig2}, genRuns...) {
		data := sampleData(rng, r.AllData(), 12)
		if finals := r.FinalOutputs(); len(finals) > 0 {
			data = append(data, finals[len(finals)-1])
		}
		for _, v := range views[r.ID()] {
			groups = append(groups, group{r.ID(), v, data})
		}
	}
	burst := func(e *Engine) ([][]*Result, []error) {
		out, errs := make([][]*Result, len(groups)), make([]error, len(groups))
		var wg sync.WaitGroup
		for i, g := range groups {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[i], errs[i] = e.DeepProvenanceBatch(context.Background(), g.run, g.view, g.data)
			}()
		}
		wg.Wait()
		return out, errs
	}

	want, wantErrs := burst(eh)
	got, gotErrs := burst(em)
	for i, g := range groups {
		if (wantErrs[i] == nil) != (gotErrs[i] == nil) {
			t.Fatalf("batch %d (%s): heap err %v, mmap err %v", i, g.run, wantErrs[i], gotErrs[i])
		}
		if wantErrs[i] != nil {
			continue
		}
		for j, d := range g.data {
			sameResult(t, fmt.Sprintf("mmap %s/%s", g.run, d), want[i][j], got[i][j])
		}
	}

	// Every run must have materialized on the mapped side by now.
	snap := em.Warehouse().Stats().Snapshot
	if snap.Version != 3 || snap.RunsMaterialized != snap.RunsTotal || snap.RunsTotal != 1+len(genRuns) {
		t.Fatalf("mapped snapshot stats after burst: %+v", snap)
	}
}
