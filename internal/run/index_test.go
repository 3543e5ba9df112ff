package run

import (
	"reflect"
	"testing"

	"repro/internal/spec"
)

// TestIndexInterning pins the interning contract against the string
// oracle: ids are dense, interned order is natural order, and names
// round-trip.
func TestIndexInterning(t *testing.T) {
	r := Figure2()
	ix, o := r.Index(), oracleOf(r)
	if ix.NumSteps() != r.NumSteps() || ix.NumData() != r.NumData() {
		t.Fatalf("interned %d/%d, run has %d/%d", ix.NumSteps(), ix.NumData(), r.NumSteps(), r.NumData())
	}
	steps := o.StepIDs() // natural order
	for i, s := range steps {
		id, ok := ix.StepID(s)
		if !ok || id != int32(i) {
			t.Fatalf("step %q interned as (%d,%v), want %d", s, id, ok, i)
		}
		if ix.StepName(id) != s {
			t.Fatalf("step id %d names %q, want %q", id, ix.StepName(id), s)
		}
	}
	data := o.AllData() // natural order
	for i, d := range data {
		id, ok := ix.DataID(d)
		if !ok || id != int32(i) {
			t.Fatalf("data %q interned as (%d,%v), want %d", d, id, ok, i)
		}
		if ix.DataName(id) != d {
			t.Fatalf("data id %d names %q, want %q", id, ix.DataName(id), d)
		}
	}
	if _, ok := ix.StepID("nope"); ok {
		t.Fatal("unknown step interned")
	}
	if _, ok := ix.DataID("nope"); ok {
		t.Fatal("unknown data interned")
	}
}

// TestIndexAdjacency checks every CSR relation against the string oracle's
// map-level answers: producer column, step inputs/outputs, data consumers,
// finals.
func TestIndexAdjacency(t *testing.T) {
	r := Figure2()
	ix, o := r.Index(), oracleOf(r)
	for _, d := range o.AllData() {
		id, _ := ix.DataID(d)
		p, _ := o.Producer(d)
		if p == "" {
			if ix.Producer(id) != -1 {
				t.Fatalf("external %s has producer %d", d, ix.Producer(id))
			}
		} else if ix.StepName(ix.Producer(id)) != p {
			t.Fatalf("producer of %s = %s, want %s", d, ix.StepName(ix.Producer(id)), p)
		}
		want := o.Consumers(d)
		got := ix.ConsumersOf(id)
		if len(got) != len(want) {
			t.Fatalf("consumers of %s: %d vs %d", d, len(got), len(want))
		}
		seen := make(map[string]bool)
		for _, s := range got {
			seen[ix.StepName(s)] = true
		}
		for _, s := range want {
			if !seen[s] {
				t.Fatalf("consumer %s of %s missing", s, d)
			}
		}
	}
	for _, s := range o.StepIDs() {
		sid, _ := ix.StepID(s)
		for name, pair := range map[string][2][]string{
			"inputs":  {o.InputsOf(s), ix.t.names(ix.t.DataOff, ix.InputsOf(sid))},
			"outputs": {o.OutputsOf(s), ix.t.names(ix.t.DataOff, ix.OutputsOf(sid))},
		} {
			want, got := pair[0], pair[1]
			if len(want) != len(got) {
				t.Fatalf("%s of %s: %v vs %v", name, s, got, want)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s of %s out of order: %v vs %v", name, s, got, want)
				}
			}
		}
	}
	finals := make(map[string]bool)
	for _, d := range o.InputsOf(spec.Output) {
		finals[d] = true
	}
	for _, d := range o.AllData() {
		id, _ := ix.DataID(d)
		if ix.IsFinal(id) != finals[d] {
			t.Fatalf("IsFinal(%s) = %v, want %v", d, ix.IsFinal(id), finals[d])
		}
	}
}

// topoNames renders TopoOrder as step names.
func topoNames(ix *Index) []string {
	var out []string
	for _, s := range ix.TopoOrder() {
		out = append(out, ix.StepName(s))
	}
	return out
}

// TestTopoOrderCanonical: the index's topological order is what
// graph.TopoSort yields on the run's string graph with its nodes added in
// natural order (what a snapshot-reloaded run had), also for a run whose
// steps arrived in another order, and a step fed several data objects by
// one predecessor is released in id order all the same.
// TestIndexStats: the footprint counts what the oracle counts, the CSR
// arrays are whole int32s, and a closure's step set takes one word per 64
// steps.
func TestIndexStats(t *testing.T) {
	r := Figure2()
	ix, o := r.Index(), oracleOf(r)
	st := ix.Stats()
	if st.Steps != len(o.StepIDs()) || st.Data != len(o.AllData()) {
		t.Fatalf("stats counts wrong: %+v, oracle has %d/%d", st, len(o.StepIDs()), len(o.AllData()))
	}
	if st.CSRBytes <= 0 || st.CSRBytes%4 != 0 {
		t.Fatalf("CSRBytes = %d", st.CSRBytes)
	}
	wantWords := (ix.NumSteps() + 63) / 64
	if st.ClosureWords != wantWords {
		t.Fatalf("ClosureWords = %d, want %d", st.ClosureWords, wantWords)
	}
	if st.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestTopoOrderCanonical(t *testing.T) {
	runs := []*Run{Figure2()}
	for seed := int64(1); seed <= 6; seed++ {
		r, _, err := Execute(spec.Phylogenomics(), Config{Seed: seed, LoopIter: [2]int{2, 5}})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	// S1 feeds S3 and S5 through d2 and S3 again through d3, so S3's last
	// incoming flow is met after S5's; S2 joins later through S4.
	b := NewBuilder("multi", "x")
	for _, id := range []string{"S5", "S4", "S3", "S2", "S1"} { // not natural order
		mustT(t, b.AddStep(id, "M"))
	}
	for _, f := range []Flow{
		{spec.Input, "S1", []string{"d1"}}, {"S1", "S5", []string{"d2"}}, {"S1", "S3", []string{"d2", "d3"}},
		{"S3", "S4", []string{"d4"}}, {"S5", "S4", []string{"d5"}}, {"S4", "S2", []string{"d6"}},
		{"S2", spec.Output, []string{"d7"}},
	} {
		mustT(t, b.AddFlow(f.From, f.To, f.Data))
	}
	multi := mustBuild(t, b)
	if got, want := topoNames(multi.Index()), []string{"S1", "S3", "S5", "S4", "S2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("multi-flow order %v, want %v", got, want)
	}
	runs = append(runs, multi)

	for _, r := range runs {
		var want []string
		o := oracleOf(r)
		sorted, err := o.canonical().TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range sorted {
			if n != spec.Input && n != spec.Output {
				want = append(want, n)
			}
		}
		if got := topoNames(r.Index()); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %s: TopoOrder %v, TopoSort of the natural-order graph %v", r.ID(), got, want)
		}
	}

	// A cycle (only an unvalidated run can hold one) leaves the order short.
	cb := NewBuilder("cyc", "x")
	for _, id := range []string{"S1", "S2"} {
		mustT(t, cb.AddStep(id, "M"))
	}
	for _, f := range []Flow{{spec.Input, "S1", []string{"d1"}}, {"S1", "S2", []string{"d2"}}, {"S2", "S1", []string{"d3"}}} {
		mustT(t, cb.AddFlow(f.From, f.To, f.Data))
	}
	cyc := mustBuild(t, cb)
	if got := cyc.Index().TopoOrder(); len(got) == cyc.NumSteps() {
		t.Fatalf("cyclic run fully ordered: %v", got)
	}
}
