package composite

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/run"
	"repro/internal/spec"
)

func joeView(t testing.TB) *core.UserView {
	t.Helper()
	v, err := core.BuildRelevant(spec.Phylogenomics(), spec.PhyloRelevantJoe())
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func maryView(t testing.TB) *core.UserView {
	t.Helper()
	v, err := core.BuildRelevant(spec.Phylogenomics(), spec.PhyloRelevantMary())
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestJoeS13 reproduces the paper's S13: under Joe's view the whole loop
// M3-M4-M5 collapses into one execution of M10 (named "M3" by the builder)
// with input {d308..d408} and output {d413}.
func TestJoeS13(t *testing.T) {
	m, err := Build(run.Figure2(), joeView(t))
	if err != nil {
		t.Fatal(err)
	}
	execs := m.ExecutionsOf("M3") // builder names Joe's M10 after M3
	if len(execs) != 1 {
		t.Fatalf("M10 has %d executions, want 1 (S13)", len(execs))
	}
	s13 := execs[0]
	if !reflect.DeepEqual(s13.Steps, []string{"S2", "S3", "S4", "S5", "S6"}) {
		t.Fatalf("S13 steps = %v", s13.Steps)
	}
	if !reflect.DeepEqual(s13.Inputs, run.DataIDs(308, 408)) {
		t.Fatalf("S13 inputs = %s", run.FormatDataSet(s13.Inputs))
	}
	if !reflect.DeepEqual(s13.Outputs, []string{"d413"}) {
		t.Fatalf("S13 outputs = %v", s13.Outputs)
	}
}

// TestMaryS11S12 reproduces S11 and S12: two executions of M11, the first
// with input {d308..d408} and output {d410}, the second with input {d411}
// and output {d413}.
func TestMaryS11S12(t *testing.T) {
	m, err := Build(run.Figure2(), maryView(t))
	if err != nil {
		t.Fatal(err)
	}
	execs := m.ExecutionsOf("M3") // Mary's M11 is named after M3
	if len(execs) != 2 {
		t.Fatalf("M11 has %d executions, want 2 (S11, S12)", len(execs))
	}
	s11, s12 := execs[0], execs[1]
	if !reflect.DeepEqual(s11.Steps, []string{"S2", "S3"}) {
		t.Fatalf("S11 steps = %v", s11.Steps)
	}
	if !reflect.DeepEqual(s11.Inputs, run.DataIDs(308, 408)) {
		t.Fatalf("S11 inputs = %s", run.FormatDataSet(s11.Inputs))
	}
	if !reflect.DeepEqual(s11.Outputs, []string{"d410"}) {
		t.Fatalf("S11 outputs = %v", s11.Outputs)
	}
	if !reflect.DeepEqual(s12.Steps, []string{"S5", "S6"}) {
		t.Fatalf("S12 steps = %v", s12.Steps)
	}
	if !reflect.DeepEqual(s12.Inputs, []string{"d411"}) {
		t.Fatalf("S12 inputs = %v", s12.Inputs)
	}
	if !reflect.DeepEqual(s12.Outputs, []string{"d413"}) {
		t.Fatalf("S12 outputs = %v", s12.Outputs)
	}
}

func TestVisibility(t *testing.T) {
	r := run.Figure2()
	mJoe, _ := Build(r, joeView(t))
	mMary, _ := Build(r, maryView(t))
	// "Joe would not see the data d411" — internal to S13.
	if mJoe.Visible("d411") {
		t.Fatal("d411 visible to Joe")
	}
	// Mary sees d411 (it flows M11 -> M5's step).
	if !mMary.Visible("d411") {
		t.Fatal("d411 not visible to Mary")
	}
	// d413 crosses into S10 for both.
	if !mJoe.Visible("d413") || !mMary.Visible("d413") {
		t.Fatal("d413 must be visible to both")
	}
	// User input is always visible; final output is always visible.
	if !mJoe.Visible("d1") || !mJoe.Visible("d447") {
		t.Fatal("external input / final output not visible")
	}
	if mJoe.Visible("d999") {
		t.Fatal("unknown data visible")
	}
	// d409 is internal to M10 for Joe AND internal to M11's S11 for Mary.
	if mJoe.Visible("d409") || mMary.Visible("d409") {
		t.Fatal("d409 must be hidden from both")
	}
	// d410 is hidden from Joe (internal to S13) but visible to Mary (it
	// flows S11 -> S4). d412 flows S5 -> S6, both inside Mary's S12, so it
	// is hidden from Mary as well.
	if mJoe.Visible("d410") {
		t.Fatal("d410 visible to Joe")
	}
	if !mMary.Visible("d410") {
		t.Fatal("d410 hidden from Mary")
	}
	if mJoe.Visible("d412") || mMary.Visible("d412") {
		t.Fatal("d412 must be hidden from both")
	}
}

func TestUAdminMappingIsIdentity(t *testing.T) {
	r := run.Figure2()
	m, err := Build(r, core.UAdmin(spec.Phylogenomics()))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumExecutions() != r.NumSteps() {
		t.Fatalf("%d executions, want %d", m.NumExecutions(), r.NumSteps())
	}
	// Single-step executions keep their step ids.
	for _, st := range r.Steps() {
		e, ok := m.Execution(st.ID)
		if !ok {
			t.Fatalf("no execution named %s", st.ID)
		}
		if !reflect.DeepEqual(e.Steps, []string{st.ID}) {
			t.Fatalf("execution %s steps = %v", st.ID, e.Steps)
		}
		if !reflect.DeepEqual(e.Inputs, r.InputsOf(st.ID)) {
			t.Fatalf("execution %s inputs differ", st.ID)
		}
	}
	// Under UAdmin every data object is visible.
	for _, d := range r.AllData() {
		if !m.Visible(d) {
			t.Fatalf("%s hidden under UAdmin", d)
		}
	}
}

func TestBlackBoxMapping(t *testing.T) {
	r := run.Figure2()
	v, err := core.UBlackBox(spec.Phylogenomics())
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(r, v)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumExecutions() != 1 {
		t.Fatalf("%d executions, want 1", m.NumExecutions())
	}
	e := m.Executions()[0]
	if len(e.Steps) != 10 {
		t.Fatalf("black box contains %d steps", len(e.Steps))
	}
	// Inputs: all external data; outputs: the final tree.
	if len(e.Inputs) != 131 {
		t.Fatalf("inputs = %d, want 131", len(e.Inputs))
	}
	if !reflect.DeepEqual(e.Outputs, []string{"d447"}) {
		t.Fatalf("outputs = %v", e.Outputs)
	}
	// Only external data and the final output are visible.
	visible := 0
	for _, d := range r.AllData() {
		if m.Visible(d) {
			visible++
		}
	}
	if visible != 132 {
		t.Fatalf("visible data = %d, want 132", visible)
	}
}

func TestExecutionEdges(t *testing.T) {
	m, _ := Build(run.Figure2(), maryView(t))
	edges := m.Edges()
	find := func(from, to string) *Edge {
		for i := range edges {
			if edges[i].From == from && edges[i].To == to {
				return &edges[i]
			}
		}
		return nil
	}
	// M11's first execution feeds S4 (M5's step) with d410.
	e := find("M3@1", "S4")
	if e == nil || !reflect.DeepEqual(e.Data, []string{"d410"}) {
		t.Fatalf("edge M3@1 -> S4 = %+v", e)
	}
	// S4 feeds M11's second execution with d411.
	e = find("S4", "M3@2")
	if e == nil || !reflect.DeepEqual(e.Data, []string{"d411"}) {
		t.Fatalf("edge S4 -> M3@2 = %+v", e)
	}
	// No self edges.
	for _, e := range edges {
		if e.From == e.To {
			t.Fatalf("self edge %v", e)
		}
	}
}

func TestExecutionOfAndProducer(t *testing.T) {
	m, _ := Build(run.Figure2(), joeView(t))
	id, ok := m.ExecutionOf("S4")
	if !ok || id != "M3@1" {
		t.Fatalf("ExecutionOf(S4) = %s, %v", id, ok)
	}
	if _, ok := m.ExecutionOf("S99"); ok {
		t.Fatal("unknown step mapped")
	}
	pe, ok := m.ProducerExecution("d413")
	if !ok || pe != "M3@1" {
		t.Fatalf("ProducerExecution(d413) = %s, %v", pe, ok)
	}
	if _, ok := m.ProducerExecution("d1"); ok {
		t.Fatal("external data has a producer execution")
	}
	if _, ok := m.ProducerExecution("d999"); ok {
		t.Fatal("unknown data has a producer execution")
	}
}

func TestBuildRejectsForeignView(t *testing.T) {
	other := spec.New("other")
	other.MustAddModule(spec.Module{Name: "X"})
	other.MustAddEdge(spec.Input, "X")
	other.MustAddEdge("X", spec.Output)
	v := core.UAdmin(other)
	if _, err := Build(run.Figure2(), v); !errors.Is(err, ErrViewMismatch) {
		t.Fatalf("foreign view accepted: %v", err)
	}
}

func TestExecutedRunsMapCleanly(t *testing.T) {
	// Composite executions over generated runs: every step lands in exactly
	// one execution; executions partition the steps.
	s := spec.Phylogenomics()
	r, _, err := run.Execute(s, run.Config{Seed: 13, LoopIter: [2]int{4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []*core.UserView{joeView(t), maryView(t), core.UAdmin(s)} {
		m, err := Build(r, v)
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		for _, e := range m.Executions() {
			count += len(e.Steps)
			for _, st := range e.Steps {
				if id, _ := m.ExecutionOf(st); id != e.ID {
					t.Fatalf("step %s maps to %s, expected %s", st, id, e.ID)
				}
			}
		}
		if count != r.NumSteps() {
			t.Fatalf("executions cover %d steps, want %d", count, r.NumSteps())
		}
	}
}

// TestSelfLoopMergesUnderUAdmin pins the documented consequence of the
// paper's "consecutive steps" rule: even under UAdmin, the consecutive
// iterations of a self-looping module form one composite execution, and
// the data passed between iterations is hidden.
func TestSelfLoopMergesUnderUAdmin(t *testing.T) {
	s := spec.New("selfloop")
	s.MustAddModule(spec.Module{Name: "A"})
	s.MustAddModule(spec.Module{Name: "B"})
	s.MustAddEdge(spec.Input, "A")
	s.MustAddEdge("A", "A")
	s.MustAddEdge("A", "B")
	s.MustAddEdge("B", spec.Output)
	r, _, err := run.Execute(s, run.Config{RunID: "sl", Seed: 2, LoopIter: [2]int{3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.StepsOfModule("A")); got != 3 {
		t.Fatalf("A ran %d times, want 3", got)
	}
	m, err := Build(r, core.UAdmin(s))
	if err != nil {
		t.Fatal(err)
	}
	execs := m.ExecutionsOf("A")
	if len(execs) != 1 {
		t.Fatalf("self-loop iterations split into %d executions, want 1", len(execs))
	}
	if len(execs[0].Steps) != 3 {
		t.Fatalf("merged execution has %d steps", len(execs[0].Steps))
	}
	// The inter-iteration data is hidden; the exit data is visible.
	for _, f := range r.Flows() {
		if f.From != execs[0].Steps[0] || f.To != execs[0].Steps[1] {
			continue
		}
		for _, d := range f.Data {
			if m.Visible(d) {
				t.Fatalf("inter-iteration data %s visible", d)
			}
		}
	}
	for _, d := range execs[0].Outputs {
		if !m.Visible(d) {
			t.Fatalf("exit data %s hidden", d)
		}
	}
}

// TestBuildAllocatesWhatItKeeps pins that a mapping is built without
// scratch: each row is laid out at its final size, so what Build allocates
// is close to what the projector keeps. On a Class4-large run (generator
// seed 10), building through fact lists that were then copied into rows
// allocated 2.3x what it kept under UAdmin and 3.6x under a 30% relevant
// view; counting the rows out took both to under 1.4x.
func TestBuildAllocatesWhatItKeeps(t *testing.T) {
	const builds, ceiling = 8, 1.5
	g := gen.NewGenerator(10)
	s := g.Workflow(gen.Class4(), "alloc")
	r, _, err := g.Run(s, gen.Large(), "alloc-run")
	if err != nil {
		t.Fatal(err)
	}
	relevant, err := core.BuildRelevant(s, g.RandomRelevant(s, 30))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		v    *core.UserView
	}{{"UAdmin", core.UAdmin(s)}, {"30% relevant", relevant}} {
		// A first build warms what the run and the view compute once.
		if _, err := Build(r, c.v); err != nil {
			t.Fatal(err)
		}
		kept := make([]*Mapping, builds)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range kept {
			if kept[i], err = Build(r, c.v); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(kept)
		allocated := float64(after.TotalAlloc-before.TotalAlloc) / builds
		held := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / builds
		ratio := allocated / held
		t.Logf("%s on %d steps, %d data: %.0f KB allocated, %.0f KB kept per build (%.2fx)",
			c.name, r.NumSteps(), r.Index().NumData(), allocated/1024, held/1024, ratio)
		if held <= 0 || ratio > ceiling {
			t.Fatalf("%s: Build allocates %.0f bytes and keeps %.0f: ratio %.2f, ceiling %.1f",
				c.name, allocated, held, ratio, ceiling)
		}
	}
}

// TestMappingHoldsWhatTheViewAdds pins a mapping's heap to what the view
// adds to the run: per step its execution and its place in a member row; per
// execution its composite, three row offsets and two edge ranks; the input
// and output rows; and the token tables of its composite names and
// multi-step ids. Nothing is per data object: the
// producer column the projector once copied, 4 bytes per data object under
// every view, is read through the run's. On a Class4-large run (generator
// seed 10) that column was three quarters of a blackbox mapping. Bytes,
// which /v1/stats reports, must account for what the heap holds.
func TestMappingHoldsWhatTheViewAdds(t *testing.T) {
	const builds = 8
	g := gen.NewGenerator(10)
	s := g.Workflow(gen.Class4(), "held")
	r, _, err := g.Run(s, gen.Large(), "held-run")
	if err != nil {
		t.Fatal(err)
	}
	relevant, err := core.BuildRelevant(s, g.RandomRelevant(s, 30))
	if err != nil {
		t.Fatal(err)
	}
	blackbox, err := core.UBlackBox(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		v    *core.UserView
	}{{"UAdmin", core.UAdmin(s)}, {"30% relevant", relevant}, {"blackbox", blackbox}} {
		m, err := Build(r, c.v) // warms what the run and the view compute once
		if err != nil {
			t.Fatal(err)
		}
		p := m.Projector()
		execs := p.NumExecutions()
		rows := len(p.inData) + len(p.outData)
		adds := 4*(2*r.NumSteps()+6*(execs+1)+rows) + p.compTok.Bytes() + p.idTok.Bytes()
		kept := make([]*Mapping, builds)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range kept {
			if kept[i], err = Build(r, c.v); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(kept)
		held := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / builds
		t.Logf("%s: %d executions, %d row entries: %.1f KB held per mapping, %.1f KB the view adds, Bytes() %.1f KB",
			c.name, execs, rows, held/1024, float64(adds)/1024, float64(p.Bytes())/1024)
		if held > 1.15*float64(adds) {
			t.Errorf("%s: a mapping holds %.0f bytes, %.2fx the %d the view adds", c.name, held, held/float64(adds), adds)
		}
		if b := float64(p.Bytes()); b < 0.85*held || b > 1.15*held {
			t.Errorf("%s: Bytes() = %.0f, the heap holds %.0f per mapping", c.name, b, held)
		}
	}
}
