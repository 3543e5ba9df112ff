package warehouse

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/run"
	"repro/internal/spec"
)

func loadedWarehouse(t testing.TB) *Warehouse {
	t.Helper()
	w := New(0)
	if err := w.RegisterSpec(spec.Phylogenomics()); err != nil {
		t.Fatal(err)
	}
	if err := w.LoadRun(run.Figure2()); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRegisterSpecValidation(t *testing.T) {
	w := New(0)
	bad := spec.New("bad")
	bad.MustAddModule(spec.Module{Name: "A"})
	if err := w.RegisterSpec(bad); err == nil {
		t.Fatal("invalid spec registered")
	}
	if err := w.RegisterSpec(spec.Phylogenomics()); err != nil {
		t.Fatal(err)
	}
	if err := w.RegisterSpec(spec.Phylogenomics()); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate spec: %v", err)
	}
	if _, err := w.Spec("nope"); !errors.Is(err, ErrUnknownSpec) {
		t.Fatalf("unknown spec: %v", err)
	}
	if got := w.SpecNames(); !reflect.DeepEqual(got, []string{"phylogenomics"}) {
		t.Fatalf("SpecNames = %v", got)
	}
}

func TestRegisterView(t *testing.T) {
	w := loadedWarehouse(t)
	s, _ := w.Spec("phylogenomics")
	joe, err := core.BuildRelevant(s, spec.PhyloRelevantJoe())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RegisterView("joe", joe); err != nil {
		t.Fatal(err)
	}
	if err := w.RegisterView("joe", joe); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate view: %v", err)
	}
	if _, err := w.View("phylogenomics", "joe"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.View("phylogenomics", "nope"); !errors.Is(err, ErrUnknownView) {
		t.Fatalf("unknown view: %v", err)
	}
	if _, err := w.View("nope", "joe"); !errors.Is(err, ErrUnknownSpec) {
		t.Fatalf("unknown spec: %v", err)
	}
	foreign := core.UAdmin(spec.New("ghost"))
	if err := w.RegisterView("x", foreign); !errors.Is(err, ErrUnknownSpec) {
		t.Fatalf("foreign view: %v", err)
	}
	if got := w.ViewNames("phylogenomics"); !reflect.DeepEqual(got, []string{"joe"}) {
		t.Fatalf("ViewNames = %v", got)
	}
}

func TestLoadRunChecks(t *testing.T) {
	w := New(0)
	if err := w.LoadRun(run.Figure2()); !errors.Is(err, ErrUnknownSpec) {
		t.Fatalf("run without spec: %v", err)
	}
	mustT(t, w.RegisterSpec(spec.Phylogenomics()))
	mustT(t, w.LoadRun(run.Figure2()))
	if err := w.LoadRun(run.Figure2()); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate run: %v", err)
	}
	// Non-conformant run rejected.
	b := run.NewBuilder("bad", "phylogenomics")
	mustT(t, b.AddStep("S1", "M1"))
	mustT(t, b.AddStep("S2", "M7"))
	mustT(t, b.AddFlow(spec.Input, "S1", []string{"x1"}))
	mustT(t, b.AddFlow("S1", "S2", []string{"x2"}))
	mustT(t, b.AddFlow("S2", spec.Output, []string{"x3"}))
	bad, err := b.Build()
	mustT(t, err)
	if err := w.LoadRun(bad); !errors.Is(err, run.ErrNonConformant) {
		t.Fatalf("non-conformant run: %v", err)
	}
	if w.NumRuns() != 1 {
		t.Fatalf("NumRuns = %d", w.NumRuns())
	}
	if got := w.RunIDs(); !reflect.DeepEqual(got, []string{"fig2"}) {
		t.Fatalf("RunIDs = %v", got)
	}
	if _, err := w.Run("ghost"); !errors.Is(err, ErrUnknownRun) {
		t.Fatalf("unknown run: %v", err)
	}
}

func TestLoadLog(t *testing.T) {
	w := New(0)
	mustT(t, w.RegisterSpec(spec.Phylogenomics()))
	orig := run.Figure2()
	events, err := orig.ToLog()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.LoadLog("fromlog", "phylogenomics", events); err != nil {
		t.Fatal(err)
	}
	r, err := w.Run("fromlog")
	if err != nil {
		t.Fatal(err)
	}
	if r.NumSteps() != orig.NumSteps() || r.NumData() != orig.NumData() {
		t.Fatal("log-loaded run differs from original")
	}
}

func TestConnectByGeneric(t *testing.T) {
	parents := map[string][]string{
		"a": {"b", "c"},
		"b": {"d"},
		"c": {"d"},
		"d": nil,
	}
	got := ConnectBy([]string{"a"}, func(k string) []string { return parents[k] })
	if !reflect.DeepEqual(got, []string{"a", "b", "c", "d"}) {
		t.Fatalf("ConnectBy = %v", got)
	}
	// Cycles terminate.
	loop := map[string][]string{"x": {"y"}, "y": {"x"}}
	got = ConnectBy([]string{"x"}, func(k string) []string { return loop[k] })
	if len(got) != 2 {
		t.Fatalf("cycle closure = %v", got)
	}
	// Duplicate starts collapse.
	got = ConnectBy([]string{"a", "a"}, func(k string) []string { return nil })
	if len(got) != 1 {
		t.Fatalf("duplicate starts: %v", got)
	}
}

func TestDeepProvenanceD447(t *testing.T) {
	// "the provenance of the final data object d447 in Figure 2 would
	// include every data object (d1..) and every step (S1..S10)".
	w := loadedWarehouse(t)
	c, err := w.DeepProvenance("fig2", "d447")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumSteps() != 10 {
		t.Fatalf("steps = %d, want all 10", c.NumSteps())
	}
	r, _ := w.Run("fig2")
	if c.NumData() != r.NumData() {
		t.Fatalf("data = %d, want all %d", c.NumData(), r.NumData())
	}
	if !c.HasData("d447") || c.Root != "d447" {
		t.Fatal("root missing")
	}
}

func TestDeepProvenanceD413(t *testing.T) {
	// Deep provenance of d413 includes S2 with inputs {d308..d408} but not
	// the annotation branch (S7..S9) nor the final step S10.
	w := loadedWarehouse(t)
	c, err := w.DeepProvenance("fig2", "d413")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"S1", "S2", "S3", "S4", "S5", "S6"} {
		if !c.HasStep(s) {
			t.Fatalf("step %s missing", s)
		}
	}
	for _, s := range []string{"S7", "S8", "S9", "S10"} {
		if c.HasStep(s) {
			t.Fatalf("step %s should not be in provenance of d413", s)
		}
	}
	for _, d := range []string{"d308", "d408", "d410", "d411", "d412", "d1"} {
		if !c.HasData(d) {
			t.Fatalf("data %s missing", d)
		}
	}
	if c.HasData("d446") || c.HasData("d202") {
		t.Fatal("annotation-branch data leaked into d413's provenance")
	}
}

func TestDeepProvenanceExternalData(t *testing.T) {
	w := loadedWarehouse(t)
	c, err := w.DeepProvenance("fig2", "d1")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumSteps() != 0 || c.NumData() != 1 {
		t.Fatalf("external data closure: steps=%d data=%d", c.NumSteps(), c.NumData())
	}
}

func TestDeepProvenanceErrors(t *testing.T) {
	w := loadedWarehouse(t)
	if _, err := w.DeepProvenance("ghost", "d1"); !errors.Is(err, ErrUnknownRun) {
		t.Fatalf("unknown run: %v", err)
	}
	if _, err := w.DeepProvenance("fig2", "d9999"); !errors.Is(err, ErrUnknownData) {
		t.Fatalf("unknown data: %v", err)
	}
}

func TestDeepDerivation(t *testing.T) {
	w := loadedWarehouse(t)
	c, err := w.DeepDerivation("fig2", "d410")
	if err != nil {
		t.Fatal(err)
	}
	// d410 -> S4 -> d411 -> S5 -> d412 -> S6 -> d413 -> S10 -> d447.
	for _, s := range []string{"S4", "S5", "S6", "S10"} {
		if !c.HasStep(s) {
			t.Fatalf("step %s missing from derivation", s)
		}
	}
	for _, d := range []string{"d411", "d412", "d413", "d447"} {
		if !c.HasData(d) {
			t.Fatalf("data %s missing from derivation", d)
		}
	}
	if c.HasStep("S1") || c.HasData("d308") {
		t.Fatal("upstream data leaked into derivation")
	}
	if _, err := w.DeepDerivation("fig2", "nope"); !errors.Is(err, ErrUnknownData) {
		t.Fatalf("unknown data: %v", err)
	}
	if _, err := w.DeepDerivation("ghost", "d1"); !errors.Is(err, ErrUnknownRun) {
		t.Fatalf("unknown run: %v", err)
	}
}

func TestImmediateProvenance(t *testing.T) {
	w := loadedWarehouse(t)
	step, inputs, err := w.ImmediateProvenance("fig2", "d413")
	if err != nil {
		t.Fatal(err)
	}
	if step != "S6" || !reflect.DeepEqual(inputs, []string{"d412"}) {
		t.Fatalf("immediate provenance of d413 = %s %v", step, inputs)
	}
	step, inputs, err = w.ImmediateProvenance("fig2", "d1")
	if err != nil || step != "" || inputs != nil {
		t.Fatalf("external: %s %v %v", step, inputs, err)
	}
	if _, _, err := w.ImmediateProvenance("fig2", "nope"); !errors.Is(err, ErrUnknownData) {
		t.Fatalf("unknown data: %v", err)
	}
	if _, _, err := w.ImmediateProvenance("ghost", "d1"); !errors.Is(err, ErrUnknownRun) {
		t.Fatalf("unknown run: %v", err)
	}
}

func TestClosureCacheBehavior(t *testing.T) {
	w := loadedWarehouse(t)
	if _, err := w.DeepProvenance("fig2", "d447"); err != nil {
		t.Fatal(err)
	}
	c0 := w.CacheCounters()
	if c0.Hits != 0 || c0.Misses != 1 {
		t.Fatalf("after first query: hits=%d misses=%d", c0.Hits, c0.Misses)
	}
	if _, err := w.DeepProvenance("fig2", "d447"); err != nil {
		t.Fatal(err)
	}
	if h1 := w.CacheCounters().Hits; h1 != 1 {
		t.Fatalf("second query did not hit cache: hits=%d", h1)
	}
	w.ResetCache()
	if c := w.CacheCounters(); c.Hits != 0 || c.Misses != 0 {
		t.Fatal("ResetCache did not clear stats")
	}
}

func TestClosureCacheEviction(t *testing.T) {
	w := New(2) // tiny cache
	mustT(t, w.RegisterSpec(spec.Phylogenomics()))
	mustT(t, w.LoadRun(run.Figure2()))
	for _, d := range []string{"d447", "d413", "d410"} {
		if _, err := w.DeepProvenance("fig2", d); err != nil {
			t.Fatal(err)
		}
	}
	// d447 (least recently used) was evicted: querying it again misses.
	m0 := w.CacheCounters().Misses
	if _, err := w.DeepProvenance("fig2", "d447"); err != nil {
		t.Fatal(err)
	}
	m1 := w.CacheCounters().Misses
	if m1 != m0+1 {
		t.Fatalf("expected eviction miss: misses %d -> %d", m0, m1)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	w := loadedWarehouse(t)
	s, _ := w.Spec("phylogenomics")
	joe, _ := core.BuildRelevant(s, spec.PhyloRelevantJoe())
	mustT(t, w.RegisterView("joe", joe))
	mustT(t, w.DropRun("fig2"))
	mustT(t, w.LoadRun(figure2With(t, map[string]string{"who": "joe"})))

	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(bytes.NewReader(buf.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.SpecNames(), w.SpecNames()) {
		t.Fatal("specs differ after round trip")
	}
	if !reflect.DeepEqual(back.RunIDs(), w.RunIDs()) {
		t.Fatal("runs differ after round trip")
	}
	v, err := back.View("phylogenomics", "joe")
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(joe) {
		t.Fatal("view differs after round trip")
	}
	// Provenance answers must be identical.
	a, _ := w.DeepProvenance("fig2", "d413")
	b, _ := back.DeepProvenance("fig2", "d413")
	aSteps, aData := closureSets(a)
	bSteps, bData := closureSets(b)
	if !reflect.DeepEqual(aSteps, bSteps) || !reflect.DeepEqual(aData, bData) {
		t.Fatal("provenance differs after round trip")
	}
	// Input metadata survives the round trip.
	rr, _ := back.Run("fig2")
	if got := rr.InputMeta("d1"); got["who"] != "joe" {
		t.Fatalf("metadata lost: %v", got)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("{")), 0); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if _, err := Load(bytes.NewReader([]byte(`{"views":[{"spec":"ghost","name":"v","blocks":{}}]}`)), 0); err == nil {
		t.Fatal("dangling view accepted")
	}
}

func TestConcurrentQueries(t *testing.T) {
	w := loadedWarehouse(t)
	r, _ := w.Run("fig2")
	data := r.AllData()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for j := off; j < len(data); j += 8 {
				if _, err := w.DeepProvenance("fig2", data[j]); err != nil {
					t.Errorf("concurrent query: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func mustT(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// figure2With returns the Figure 2 run with meta recorded for input d1.
func figure2With(t testing.TB, meta map[string]string) *run.Run {
	t.Helper()
	b := run.Figure2().Rebuild()
	mustT(t, b.AnnotateInput("d1", meta))
	r, err := b.Build()
	mustT(t, err)
	return r
}
