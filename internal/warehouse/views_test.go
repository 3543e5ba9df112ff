package warehouse

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/run"
	"repro/internal/spec"
)

// TestViewMemoEvictsOne: a full view memo gives up one entry per new view,
// the least recently used, so every other live view keeps its pointer and,
// with it, its mappings.
// Clearing the memo instead would hand every live view a new pointer on its
// next request and strand all of their mappings at once.
func TestViewMemoEvictsOne(t *testing.T) {
	g := gen.NewGenerator(3)
	sp := g.Workflow(gen.Class2(), "memo")
	r, _, err := g.Run(sp, gen.Small(), "memo-run")
	if err != nil {
		t.Fatal(err)
	}
	w := New(0)
	mustT(t, w.RegisterSpec(sp))
	mustT(t, w.LoadRun(r))
	mods := sp.ModuleNames()
	if 1<<len(mods) <= memoBound+1 {
		t.Fatalf("%d modules cannot spell %d distinct relevant lists", len(mods), memoBound+1)
	}
	// The k-th relevant list is the modules at the set bits of k.
	resolve := func(k int) *core.UserView {
		var relevant []string
		for i, m := range mods {
			if k&(1<<i) != 0 {
				relevant = append(relevant, m)
			}
		}
		v, err := w.ResolveView(r.ID(), "", relevant)
		if err != nil {
			t.Fatalf("relevant list %d: %v", k, err)
		}
		return v
	}
	built := make(map[int]*core.UserView, memoBound)
	for k := 1; k <= memoBound; k++ {
		built[k] = resolve(k)
	}
	resolve(memoBound + 1)
	if n := w.viewMemo.Held().Entries; n != memoBound {
		t.Fatalf("memo holds %d views after %d distinct relevant lists, want %d", n, memoBound+1, memoBound)
	}
	// The victim is the least recently used list, the first; every other
	// list still resolves to its view (each a hit, so nothing is evicted).
	for k := 2; k <= memoBound; k++ {
		if again := resolve(k); again != built[k] {
			t.Fatalf("relevant list %d was not the victim but resolved to a new view", k)
		}
	}
	if again := resolve(1); again == built[1] {
		t.Fatal("relevant list 1, the least recently used, was not evicted")
	}
	if c := w.viewMemo.Counters(); c.Evictions != 2 {
		t.Fatalf("%d evictions, want 2: one for list %d and one for list 1 again", c.Evictions, memoBound+1)
	}
}

// TestMappingOfADroppedRunIsNotKept is the regression for mappings that
// outlived their run. A query that resolved the run before a drop and
// builds its mapping after it gets its answer, but the memo keeps nothing
// (when the engine swept mappings after the drop returned, that mapping
// stayed, holding the run and its index). Close drops every mapping with
// the snapshot their indexes may alias, and a mapping asked for after
// Close is ErrClosed.
func TestMappingOfADroppedRunIsNotKept(t *testing.T) {
	w := loadedWarehouse(t)
	admin := core.UAdmin(spec.Phylogenomics())
	stale, err := w.Run("fig2")
	if err != nil {
		t.Fatal(err)
	}
	mustT(t, w.DropRun("fig2"))
	m, err := w.Mapping(nil, stale, admin)
	if err != nil || m == nil || m.Projector().Index() != stale.Index() {
		t.Fatalf("mapping of a run dropped after it was resolved: %v, %v; want the run's mapping", m, err)
	}
	if n := w.Stats().Mappings.Entries; n != 0 {
		t.Fatalf("memo holds %d mappings of a dropped run, want 0", n)
	}

	mustT(t, w.LoadRun(run.Figure2()))
	r, err := w.Run("fig2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Mapping(nil, r, admin); err != nil {
		t.Fatal(err)
	}
	if n := w.Stats().Mappings.Entries; n != 1 {
		t.Fatalf("memo holds %d mappings of a served run, want 1", n)
	}
	mustT(t, w.Close())
	if n := w.Stats().Mappings.Entries; n != 0 {
		t.Fatalf("memo holds %d mappings after Close, want 0", n)
	}
	if _, err := w.Mapping(nil, r, core.UAdmin(spec.Phylogenomics())); !errors.Is(err, ErrClosed) {
		t.Fatalf("mapping after Close: %v, want ErrClosed", err)
	}
	if n := w.Stats().Mappings.Entries; n != 0 {
		t.Fatalf("memo holds %d mappings after a lookup on a closed warehouse, want 0", n)
	}
}

// TestDropRunSweepsMappings: DropRun removes exactly the dropped run's
// mappings, each counted as a drop, and the other run's mappings stay:
// asking for them again hits each once and builds none.
func TestDropRunSweepsMappings(t *testing.T) {
	g := gen.NewGenerator(99)
	s := g.Workflow(gen.Class3(), "drop")
	w := New(0)
	mustT(t, w.RegisterSpec(s))
	var runs []*run.Run
	for _, id := range []string{"x", "keep"} {
		r, _, err := g.Run(s, gen.Small(), id)
		if err != nil {
			t.Fatal(err)
		}
		mustT(t, w.LoadRun(r))
		runs = append(runs, r)
	}
	ubio, err := core.BuildRelevant(s, gen.UBioRelevant(s))
	if err != nil {
		t.Fatal(err)
	}
	box, err := core.UBlackBox(s)
	if err != nil {
		t.Fatal(err)
	}
	views := []*core.UserView{core.UAdmin(s), ubio, box}
	for _, v := range views {
		for _, r := range runs {
			if _, err := w.Mapping(nil, r, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := w.Stats().Mappings.Entries; n != 2*len(views) {
		t.Fatalf("memo holds %d mappings before the drop, want %d", n, 2*len(views))
	}
	mustT(t, w.DropRun("x"))
	if n, drops := w.Stats().Mappings.Entries, w.mappings.Counters().Drops; n != len(views) || drops != int64(len(views)) {
		t.Fatalf("memo holds %d mappings after %d drops, want the other run's %d after %d", n, drops, len(views), len(views))
	}
	before := w.mappings.Counters()
	for _, v := range views {
		if _, err := w.Mapping(nil, runs[1], v); err != nil {
			t.Fatal(err)
		}
	}
	if after := w.mappings.Counters(); after.Hits-before.Hits != int64(len(views)) || after.Misses != before.Misses {
		t.Fatalf("re-asking the kept run under %d views: %d hits and %d misses, want %d and 0",
			len(views), after.Hits-before.Hits, after.Misses-before.Misses, len(views))
	}
	if err := w.DropRun("x"); !errors.Is(err, ErrUnknownRun) {
		t.Fatalf("dropping a dropped run: %v, want ErrUnknownRun", err)
	}
}
