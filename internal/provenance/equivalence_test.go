package provenance

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/warehouse"
	"repro/internal/wflog"
)

// The equivalence property: the engine (bitset closures over the CSR index,
// projected through the integer Projector) must produce element-for-element
// the Results of the naive reference implementation in oracle_test.go — same
// executions in the same order, same data, same edges — for every query.
// These tests pin it on the paper's phylogenomics example and on generated
// runs from every workflow class and every Table II run class.

// engineFor returns an engine over a fresh warehouse holding s and r.
func engineFor(t *testing.T, s *spec.Spec, r *run.Run) *Engine {
	t.Helper()
	w := warehouse.New(0)
	if err := w.RegisterSpec(s); err != nil {
		t.Fatal(err)
	}
	if err := w.LoadRun(r); err != nil {
		t.Fatal(err)
	}
	return NewEngine(w)
}

// oracleMapping builds the view's mapping independently of the engine's
// memo.
func oracleMapping(t *testing.T, r *run.Run, v *core.UserView) *composite.Mapping {
	t.Helper()
	m, err := composite.Build(r, v)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.RunID != b.RunID || a.Root != b.Root || a.External != b.External {
		t.Fatalf("%s: headers differ: %+v vs %+v", label, a, b)
	}
	if !reflect.DeepEqual(a.Metadata, b.Metadata) {
		t.Fatalf("%s: metadata differ: %v vs %v", label, a.Metadata, b.Metadata)
	}
	if len(a.Executions) != len(b.Executions) {
		t.Fatalf("%s: %d vs %d executions", label, len(a.Executions), len(b.Executions))
	}
	for i := range a.Executions {
		if !reflect.DeepEqual(a.Executions[i], b.Executions[i]) {
			t.Fatalf("%s: execution %d differs: %+v vs %+v", label, i, a.Executions[i], b.Executions[i])
		}
	}
	if !reflect.DeepEqual(a.Data, b.Data) {
		t.Fatalf("%s: data differ:\nengine %v\noracle %v", label, a.Data, b.Data)
	}
	if !reflect.DeepEqual(a.Edges, b.Edges) {
		t.Fatalf("%s: edges differ:\nengine %v\noracle %v", label, a.Edges, b.Edges)
	}
}

// checkEquivalence compares the engine with the oracle for provenance and
// derivation of the given data objects under the given views.
func checkEquivalence(t *testing.T, e *Engine, r *run.Run, views map[string]*core.UserView, data []string) {
	t.Helper()
	for vname, v := range views {
		m := oracleMapping(t, r, v)
		for _, d := range data {
			got, err := e.DeepProvenance(r.ID(), v, d)
			if err != nil {
				t.Fatalf("prov(%s,%s): %v", vname, d, err)
			}
			steps, ds := oracleClosure(r, d, false)
			sameResult(t, fmt.Sprintf("prov %s/%s/%s", r.ID(), vname, d), got, oracleProject(m, d, steps, ds))
			got, err = e.DeepDerivation(r.ID(), v, d)
			if err != nil {
				t.Fatalf("deriv(%s,%s): %v", vname, d, err)
			}
			steps, ds = oracleClosure(r, d, true)
			sameResult(t, fmt.Sprintf("deriv %s/%s/%s", r.ID(), vname, d), got, oracleProjectForward(m, d, steps, ds))
		}
	}
}

// TestEquivalencePhylogenomics: every data object of the Figure 2 run,
// under UAdmin, Joe's view, Mary's view, and UBlackBox.
func TestEquivalencePhylogenomics(t *testing.T) {
	s := spec.Phylogenomics()
	r := run.Figure2()
	e := engineFor(t, s, r)
	joe, err := core.BuildRelevant(s, spec.PhyloRelevantJoe())
	if err != nil {
		t.Fatal(err)
	}
	mary, err := core.BuildRelevant(s, spec.PhyloRelevantMary())
	if err != nil {
		t.Fatal(err)
	}
	bb, err := core.UBlackBox(s)
	if err != nil {
		t.Fatal(err)
	}
	views := map[string]*core.UserView{
		"admin": core.UAdmin(s), "joe": joe, "mary": mary, "blackbox": bb,
	}
	checkEquivalence(t, e, r, views, r.AllData())
}

// TestEquivalenceGeneratedRuns: 200 generated runs covering every workflow
// class and every Table II run class (mostly small for runtime, with
// periodic medium and large instances), compared under UAdmin, the UBio
// view, and a random builder view.
func TestEquivalenceGeneratedRuns(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 24
	}
	g := gen.NewGenerator(777)
	rng := rand.New(rand.NewSource(778))
	classes := gen.Classes()
	sawRunClass := map[string]bool{}
	for i := 0; i < trials; i++ {
		wc := classes[i%len(classes)]
		rc := gen.Small()
		switch {
		case i%50 == 20:
			rc = gen.Large()
		case i%10 == 5:
			rc = gen.Medium()
		}
		sawRunClass[rc.Name] = true
		s := g.Workflow(wc, fmt.Sprintf("eq-%d", i))
		r, _, err := g.Run(s, rc, fmt.Sprintf("eq-%d-r", i))
		if err != nil {
			t.Fatal(err)
		}
		e := engineFor(t, s, r)
		views := map[string]*core.UserView{"admin": core.UAdmin(s)}
		if ubio, err := core.BuildRelevant(s, gen.UBioRelevant(s)); err == nil {
			views["ubio"] = ubio
		}
		rel := randomModules(rng, s.ModuleNames())
		if v, err := core.BuildRelevant(s, rel); err == nil {
			views["random"] = v
		}
		data := sampleData(rng, r.AllData(), 8)
		finals := r.FinalOutputs()
		if len(finals) > 0 {
			data = append(data, finals[len(finals)-1])
		}
		checkEquivalence(t, e, r, views, data)
	}
	if !testing.Short() {
		for _, want := range []string{"small", "medium", "large"} {
			if !sawRunClass[want] {
				t.Fatalf("run class %s never exercised", want)
			}
		}
	}
}

// TestEquivalenceExecutionProvenance: the bitset union behind
// ExecutionProvenance against the oracle's union of closures, for every
// execution of generated runs from every workflow class, under UAdmin, the
// UBio view and a random builder view.
func TestEquivalenceExecutionProvenance(t *testing.T) {
	trials := 24
	if testing.Short() {
		trials = 8
	}
	g := gen.NewGenerator(555)
	rng := rand.New(rand.NewSource(556))
	classes := gen.Classes()
	for i := 0; i < trials; i++ {
		rc := gen.Small()
		if i%8 == 5 {
			rc = gen.Medium()
		}
		s := g.Workflow(classes[i%len(classes)], fmt.Sprintf("xp-%d", i))
		r, _, err := g.Run(s, rc, fmt.Sprintf("xp-%d-r", i))
		if err != nil {
			t.Fatal(err)
		}
		e := engineFor(t, s, r)
		views := map[string]*core.UserView{"admin": core.UAdmin(s)}
		if ubio, err := core.BuildRelevant(s, gen.UBioRelevant(s)); err == nil {
			views["ubio"] = ubio
		}
		if v, err := core.BuildRelevant(s, randomModules(rng, s.ModuleNames())); err == nil {
			views["random"] = v
		}
		for vname, v := range views {
			m := oracleMapping(t, r, v)
			for _, ex := range m.Executions() {
				got, err := e.ExecutionProvenance(r.ID(), v, ex.ID)
				if err != nil {
					t.Fatalf("exec prov(%s,%s): %v", vname, ex.ID, err)
				}
				sameResult(t, fmt.Sprintf("exec %s/%s/%s", r.ID(), vname, ex.ID), got, oracleExecutionProvenance(m, ex.ID))
			}
		}
	}
}

// TestEquivalenceEdgeOrder pins the order edges are reported in — (From, To)
// by string order, whatever the topological order — on a run built to make
// the two disagree: the first step sorts last ("z1"), step ids fall on both
// sides of "INPUT" ("A2" and "B3" before it, "S10", "S9" and "z1" after), and
// "S10" sorts before "S9". The engine ranks ids once per mapping and sorts
// integers; the oracle sorts the strings.
func TestEquivalenceEdgeOrder(t *testing.T) {
	s := spec.New("order")
	for _, m := range []string{"P", "Q", "R", "U", "T"} {
		s.MustAddModule(spec.Module{Name: m})
	}
	for _, e := range [][2]string{{spec.Input, "P"}, {spec.Input, "R"}, {"P", "Q"}, {"P", "R"}, {"P", "U"},
		{"Q", "T"}, {"R", "T"}, {"U", "T"}, {"T", spec.Output}} {
		s.MustAddEdge(e[0], e[1])
	}
	b := run.NewBuilder("order-run", "order")
	for _, st := range [][2]string{{"z1", "P"}, {"A2", "Q"}, {"S10", "R"}, {"S9", "U"}, {"B3", "T"}} {
		if err := b.AddStep(st[0], st[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []struct {
		from, to string
		data     []string
	}{
		{spec.Input, "z1", []string{"d1", "d2"}}, {spec.Input, "S10", []string{"d3"}},
		{"z1", "A2", []string{"d4", "d10"}}, {"z1", "S10", []string{"d5"}}, {"z1", "S9", []string{"d11"}},
		{"A2", "B3", []string{"d6"}}, {"S10", "B3", []string{"d7", "d8"}}, {"S9", "B3", []string{"d12"}},
		{"B3", spec.Output, []string{"d9"}},
	} {
		if err := b.AddFlow(f.from, f.to, f.data); err != nil {
			t.Fatal(err)
		}
	}
	r, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	e := engineFor(t, s, r)
	admin := core.UAdmin(s)

	res, err := e.DeepProvenance(r.ID(), admin, "d9")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ed := range res.Edges {
		got = append(got, ed.From+">"+ed.To+":"+strings.Join(ed.Data, ","))
	}
	want := []string{"A2>B3:d6", "INPUT>S10:d3", "INPUT>z1:d1,d2", "S10>B3:d7,d8", "S9>B3:d12",
		"z1>A2:d4,d10", "z1>S10:d5", "z1>S9:d11"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("edge order under UAdmin:\n got %v\nwant %v", got, want)
	}

	views := map[string]*core.UserView{"admin": admin}
	for name, relevant := range map[string][]string{"PT": {"P", "T"}, "Q": {"Q"}, "RU": {"R", "U"}} {
		v, err := core.BuildRelevant(s, relevant)
		if err != nil {
			t.Fatal(err)
		}
		views[name] = v
	}
	checkEquivalence(t, e, r, views, r.AllData())
	for vname, v := range views {
		m := oracleMapping(t, r, v)
		for _, ex := range m.Executions() {
			got, err := e.ExecutionProvenance(r.ID(), v, ex.ID)
			if err != nil {
				t.Fatalf("exec prov(%s,%s): %v", vname, ex.ID, err)
			}
			sameResult(t, fmt.Sprintf("exec %s/%s", vname, ex.ID), got, oracleExecutionProvenance(m, ex.ID))
		}
	}
}

// TestConcurrentIndexedServe runs a query burst — one batch per view, both
// at once — over the projector sync.Once, the shared frozen closure bitsets,
// and the pooled edge-sort scratch, all under -race, and cross-checks every
// answer against the oracle.
func TestConcurrentIndexedServe(t *testing.T) {
	g := gen.NewGenerator(911)
	s := g.Workflow(gen.Class4(), "conc-ix")
	r, _, err := g.Run(s, gen.Medium(), "conc-ix-r")
	if err != nil {
		t.Fatal(err)
	}
	e := engineFor(t, s, r)
	admin := core.UAdmin(s)
	ubio, err := core.BuildRelevant(s, gen.UBioRelevant(s))
	if err != nil {
		t.Fatal(err)
	}
	sample := sampleData(rand.New(rand.NewSource(13)), r.AllData(), 40)
	var data []string
	for rep := 0; rep < 4; rep++ { // repeats force cache-hit sharing
		data = append(data, sample...)
	}
	views := []*core.UserView{admin, ubio}
	answered := make([][]*Result, len(views))
	errs := make([]error, len(views))
	var wg sync.WaitGroup
	for i, v := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			answered[i], errs[i] = e.DeepProvenanceBatch(context.Background(), r.ID(), v, data)
		}()
	}
	wg.Wait()
	for i, v := range views {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		m := oracleMapping(t, r, v)
		for j, d := range data {
			steps, ds := oracleClosure(r, d, false)
			sameResult(t, fmt.Sprintf("concurrent %s", d), answered[i][j], oracleProject(m, d, steps, ds))
		}
	}
}

// TestReingestReplacesMapping is the stale-mapping regression: the
// (run, view) mapping memo must answer only for the run instance it was
// built over. Run A is loaded as "x" and queried, dropped, and a different
// run B is loaded as "x"; every query kind must then answer exactly like a
// fresh engine over B (the parent commit answered from A's executions).
func TestReingestReplacesMapping(t *testing.T) {
	g := gen.NewGenerator(4242)
	s := g.Workflow(gen.Class4(), "reingest")
	runA, _, err := g.Run(s, gen.Small(), "x")
	if err != nil {
		t.Fatal(err)
	}
	runB, _, err := g.Run(s, gen.Medium(), "x")
	if err != nil {
		t.Fatal(err)
	}
	if runA.NumSteps() == runB.NumSteps() {
		t.Fatal("fixture runs are not distinguishable")
	}
	lastFinal := func(r *run.Run) string { f := r.FinalOutputs(); return f[len(f)-1] }
	ubio, err := core.BuildRelevant(s, gen.UBioRelevant(s))
	if err != nil {
		t.Fatal(err)
	}

	e := engineFor(t, s, runA)
	if _, err := e.DeepProvenance("x", ubio, lastFinal(runA)); err != nil {
		t.Fatal(err)
	}
	if err := e.Warehouse().DropRun("x"); err != nil {
		t.Fatal(err)
	}
	if err := e.Warehouse().LoadRun(runB); err != nil {
		t.Fatal(err)
	}
	fresh := engineFor(t, s, runB)

	root := lastFinal(runB)
	got, err := e.DeepProvenance("x", ubio, root)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.DeepProvenance("x", ubio, root)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "provenance after re-ingest", got, want)

	in := runB.ExternalInputs()[0]
	got, err = e.DeepDerivation("x", ubio, in)
	if err != nil {
		t.Fatal(err)
	}
	want, err = fresh.DeepDerivation("x", ubio, in)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "derivation after re-ingest", got, want)

	execs, err := fresh.Executions("x", ubio)
	if err != nil {
		t.Fatal(err)
	}
	last := execs[len(execs)-1].ID
	got, err = e.ExecutionProvenance("x", ubio, last)
	if err != nil {
		t.Fatal(err)
	}
	want, err = fresh.ExecutionProvenance("x", ubio, last)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "execution provenance after re-ingest", got, want)
}

// TestMappingMemoIsBounded: 5,000 distinct relevant lists against one run —
// a new view pointer each — leave the warehouse's mapping memo at exactly
// its capacity, 1,024, and
// every answer, including one for a view whose mapping was evicted long ago,
// is the oracle's.
func TestMappingMemoIsBounded(t *testing.T) {
	g := gen.NewGenerator(31)
	s := g.Workflow(gen.Class2(), "memo")
	r, _, err := g.Run(s, gen.Small(), "memo-r")
	if err != nil {
		t.Fatal(err)
	}
	mods := s.ModuleNames()
	if len(mods) < 13 {
		t.Fatalf("fixture has %d modules, too few for 5,000 distinct subsets", len(mods))
	}
	e := engineFor(t, s, r)
	finals := r.FinalOutputs()
	root := finals[len(finals)-1]
	steps, ds := oracleClosure(r, root, false)
	check := func(v *core.UserView) {
		t.Helper()
		got, err := e.DeepProvenance(r.ID(), v, root)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "bounded memo", got, oracleProject(oracleMapping(t, r, v), root, steps, ds))
	}
	var first *core.UserView
	for i := 1; i <= 5000; i++ {
		var rel []string
		for b, m := range mods {
			if i>>b&1 == 1 {
				rel = append(rel, m)
			}
		}
		v, err := core.BuildRelevant(s, rel)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = v
		}
		check(v)
	}
	if n := e.Warehouse().Stats().Mappings.Entries; n != 1024 {
		t.Fatalf("mapping memo holds %d entries after 5,000 views, want its capacity %d", n, 1024)
	}
	check(first)
}

// TestProjectIndexMismatch: a closure and a mapping interned over different
// run indexes are an error naming both, never an answer.
func TestProjectIndexMismatch(t *testing.T) {
	s := spec.Phylogenomics()
	e := engineFor(t, s, run.Figure2())
	closure, err := e.Warehouse().DeepProvenance("fig2", "d447")
	if err != nil {
		t.Fatal(err)
	}
	other, err := run.FromLog("fig2", s.Name(), mustLog(t, run.Figure2()))
	if err != nil {
		t.Fatal(err)
	}
	m := oracleMapping(t, other, core.UAdmin(s))
	closureIx, _, _ := closure.Bits()
	for name, project := range map[string]func(*composite.Mapping, *warehouse.Closure) (*Answer, error){
		"project": project, "projectForward": projectForward,
	} {
		res, err := project(m, closure)
		if res != nil || !errors.Is(err, ErrIndexMismatch) {
			t.Fatalf("%s: res=%v err=%v, want ErrIndexMismatch", name, res, err)
		}
		for _, ix := range []*run.Index{closureIx, other.Index()} {
			if p := fmt.Sprintf("%p", ix); !strings.Contains(err.Error(), p) {
				t.Fatalf("%s: %q does not name index %s", name, err, p)
			}
		}
	}
}

func mustLog(t *testing.T, r *run.Run) []wflog.Event {
	t.Helper()
	events, err := r.ToLog()
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// TestDropRunForgetsMappings: Warehouse.DropRun leaves no memo entry naming
// the run (memos that kept them kept, through them, the run, its index and
// everything hanging off it, until 1,024 other mappings pushed them out),
// the other run keeps its mappings, and a different run loaded under the
// same id is answered from its own index. The warehouse's
// TestDropRunSweepsMappings counts the drops, hits and misses.
func TestDropRunForgetsMappings(t *testing.T) {
	g := gen.NewGenerator(99)
	s := g.Workflow(gen.Class3(), "drop")
	runA, _, err := g.Run(s, gen.Small(), "x")
	if err != nil {
		t.Fatal(err)
	}
	runB, _, err := g.Run(s, gen.Medium(), "x")
	if err != nil {
		t.Fatal(err)
	}
	keep, _, err := g.Run(s, gen.Small(), "keep")
	if err != nil {
		t.Fatal(err)
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
	lastFinal := func(r *run.Run) string { f := r.FinalOutputs(); return f[len(f)-1] }

	e := engineFor(t, s, runA)
	if err := e.Warehouse().LoadRun(keep); err != nil {
		t.Fatal(err)
	}
	for _, v := range views {
		for _, r := range []*run.Run{runA, keep} {
			if _, err := e.DeepProvenance(r.ID(), v, lastFinal(r)); err != nil {
				t.Fatal(err)
			}
		}
	}
	w := e.Warehouse()
	if n := w.Stats().Mappings.Entries; n != 2*len(views) {
		t.Fatalf("memo holds %d mappings before the drop, want %d", n, 2*len(views))
	}
	kept := make([]*composite.Mapping, len(views))
	for i, v := range views {
		if kept[i], err = w.Mapping(nil, keep, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.DropRun("x"); err != nil {
		t.Fatal(err)
	}
	if n := w.Stats().Mappings.Entries; n != len(views) {
		t.Fatalf("memo holds %d mappings after the drop, want the other run's %d", n, len(views))
	}
	// The mappings left are the kept run's: asking for them again answers
	// with the mappings built before the drop.
	for i, v := range views {
		if _, err := e.DeepProvenance(keep.ID(), v, lastFinal(keep)); err != nil {
			t.Fatal(err)
		}
		if m, err := w.Mapping(nil, keep, v); err != nil || m != kept[i] {
			t.Fatalf("the kept run's mapping under view %d was rebuilt after the drop (%v)", i, err)
		}
	}
	if n := w.Stats().Mappings.Entries; n != len(views) {
		t.Fatalf("memo holds %d mappings after re-asking the kept run, want %d", n, len(views))
	}
	if err := w.DropRun("x"); !errors.Is(err, warehouse.ErrUnknownRun) {
		t.Fatalf("dropping a dropped run: %v, want ErrUnknownRun", err)
	}

	if err := e.Warehouse().LoadRun(runB); err != nil {
		t.Fatal(err)
	}
	fresh := engineFor(t, s, runB)
	for _, v := range views {
		a, err := e.DeepAnswerCtx(context.Background(), "x", v, lastFinal(runB))
		if err != nil {
			t.Fatal(err)
		}
		if a.Projector.Index() != runB.Index() {
			t.Fatal("answer after re-ingest is not over the new run's index")
		}
		want, err := fresh.DeepProvenance("x", v, lastFinal(runB))
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "provenance after drop and re-ingest", a.Result(), want)
	}
}

// TestOversizedProjectionLeavesThePool: a projection whose fact list outgrows
// maxPooledFacts does not hand its scratch back, so whatever the pool gives
// the next query is within the cap (the parent commit pooled scratch of any
// size), and the small projection that follows answers as the oracle does.
func TestOversizedProjectionLeavesThePool(t *testing.T) {
	s := spec.New("wide")
	s.MustAddModule(spec.Module{Name: "M1"})
	s.MustAddEdge(spec.Input, "M1")
	s.MustAddEdge("M1", spec.Output)
	b := run.NewBuilder("wide-r", "wide")
	if err := b.AddStep("S1", "M1"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddFlow(spec.Input, "S1", run.DataIDs(1, maxPooledFacts+1000)); err != nil {
		t.Fatal(err)
	}
	if err := b.AddFlow("S1", spec.Output, []string{"out"}); err != nil {
		t.Fatal(err)
	}
	r, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := engineFor(t, s, r)
	a, err := e.DeepAnswerCtx(context.Background(), r.ID(), core.UAdmin(s), "out")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.EdgeData) <= maxPooledFacts {
		t.Fatalf("fixture: %d facts, want more than the cap of %d", len(a.EdgeData), maxPooledFacts)
	}
	sc := edgeScratchPool.Get().(*edgeScratch)
	if cap(sc.facts) > maxPooledFacts {
		t.Fatalf("the pool holds scratch for %d facts after an oversized projection, cap is %d", cap(sc.facts), maxPooledFacts)
	}
	sc.release()

	small := engineFor(t, spec.Phylogenomics(), run.Figure2())
	got, err := small.DeepProvenance("fig2", core.UAdmin(spec.Phylogenomics()), "d447")
	if err != nil {
		t.Fatal(err)
	}
	steps, ds := oracleClosure(run.Figure2(), "d447", false)
	sameResult(t, "small projection after an oversized one", got,
		oracleProject(oracleMapping(t, run.Figure2(), core.UAdmin(spec.Phylogenomics())), "d447", steps, ds))
}
