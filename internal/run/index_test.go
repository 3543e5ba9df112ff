package run

import (
	"reflect"
	"testing"

	"repro/internal/spec"
)

// TestIndexInterning pins the interning contract: ids are dense, interned
// order is natural order, and names round-trip.
func TestIndexInterning(t *testing.T) {
	r := Figure2()
	ix := r.Index()
	if ix.NumSteps() != r.NumSteps() || ix.NumData() != r.NumData() {
		t.Fatalf("interned %d/%d, run has %d/%d", ix.NumSteps(), ix.NumData(), r.NumSteps(), r.NumData())
	}
	steps := r.StepIDs() // natural order
	for i, s := range steps {
		id, ok := ix.StepID(s)
		if !ok || id != int32(i) {
			t.Fatalf("step %q interned as (%d,%v), want %d", s, id, ok, i)
		}
		if ix.StepName(id) != s {
			t.Fatalf("step id %d names %q, want %q", id, ix.StepName(id), s)
		}
	}
	data := r.AllData() // natural order
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

// TestIndexAdjacency checks every CSR relation against the run's map-level
// answers: producer column, step inputs/outputs, data consumers, finals.
func TestIndexAdjacency(t *testing.T) {
	r := Figure2()
	ix := r.Index()
	for _, d := range r.AllData() {
		id, _ := ix.DataID(d)
		p, _ := r.Producer(d)
		if p == "" {
			if ix.Producer(id) != -1 {
				t.Fatalf("external %s has producer %d", d, ix.Producer(id))
			}
		} else if ix.StepName(ix.Producer(id)) != p {
			t.Fatalf("producer of %s = %s, want %s", d, ix.StepName(ix.Producer(id)), p)
		}
		want := r.Consumers(d)
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
	for _, s := range r.StepIDs() {
		sid, _ := ix.StepID(s)
		for name, pair := range map[string][2][]string{
			"inputs":  {r.InputsOf(s), names(ix, ix.InputsOf(sid))},
			"outputs": {r.OutputsOf(s), names(ix, ix.OutputsOf(sid))},
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
	for _, d := range r.FinalOutputs() {
		finals[d] = true
	}
	for _, d := range r.AllData() {
		id, _ := ix.DataID(d)
		if ix.IsFinal(id) != finals[d] {
			t.Fatalf("IsFinal(%s) = %v, want %v", d, ix.IsFinal(id), finals[d])
		}
	}
}

func names(ix *Index, ids []int32) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = ix.DataName(id)
	}
	return out
}

// TestIndexInvalidation: mutating the run discards the cached snapshot, and
// the rebuilt index sees the new contents.
func TestIndexInvalidation(t *testing.T) {
	r := NewRun("inv", "spec")
	if err := r.AddStep("S1", "M1"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddFlow("INPUT", "S1", []string{"d1"}); err != nil {
		t.Fatal(err)
	}
	ix1 := r.Index()
	if ix1.NumSteps() != 1 || ix1.NumData() != 1 {
		t.Fatalf("initial index: %d steps %d data", ix1.NumSteps(), ix1.NumData())
	}
	if r.Index() != ix1 {
		t.Fatal("unchanged run rebuilt its index")
	}
	if err := r.AddStep("S2", "M2"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddFlow("S1", "S2", []string{"d2"}); err != nil {
		t.Fatal(err)
	}
	ix2 := r.Index()
	if ix2 == ix1 {
		t.Fatal("mutated run returned stale index")
	}
	if ix2.NumSteps() != 2 || ix2.NumData() != 2 {
		t.Fatalf("rebuilt index: %d steps %d data", ix2.NumSteps(), ix2.NumData())
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
// graph.TopoSort yields on the arena-reconstructed twin of a run (whose graph
// lists nodes and edges in natural order), it is the same for a run whose
// log listed its steps in another order, and a step fed several data
// objects by one predecessor is released in id order all the same.
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
	multi := NewRun("multi", "x")
	for _, id := range []string{"S5", "S4", "S3", "S2", "S1"} { // not natural order
		if err := multi.AddStep(id, "M"); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []Flow{
		{spec.Input, "S1", []string{"d1"}}, {"S1", "S5", []string{"d2"}}, {"S1", "S3", []string{"d2", "d3"}},
		{"S3", "S4", []string{"d4"}}, {"S5", "S4", []string{"d5"}}, {"S4", "S2", []string{"d6"}},
		{"S2", spec.Output, []string{"d7"}},
	} {
		if err := multi.AddFlow(f.From, f.To, f.Data); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := topoNames(multi.Index()), []string{"S1", "S3", "S5", "S4", "S2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("multi-flow order %v, want %v", got, want)
	}
	runs = append(runs, multi)

	for _, r := range runs {
		twin, err := ReconstructArena(r.ID(), r.SpecName(), arenaTables(r))
		if err != nil {
			t.Fatal(err)
		}
		sorted, err := twin.Graph().TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, n := range sorted {
			if n != spec.Input && n != spec.Output {
				want = append(want, n)
			}
		}
		if got := topoNames(r.Index()); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %s: TopoOrder %v, TopoSort of the reloaded twin %v", r.ID(), got, want)
		}
		if got := topoNames(twin.Index()); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %s: twin's TopoOrder %v, want %v", r.ID(), got, want)
		}
	}

	// A cycle (only an unvalidated run can hold one) leaves the order short.
	cyc := NewRun("cyc", "x")
	for _, id := range []string{"S1", "S2"} {
		if err := cyc.AddStep(id, "M"); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []Flow{{spec.Input, "S1", []string{"d1"}}, {"S1", "S2", []string{"d2"}}, {"S2", "S1", []string{"d3"}}} {
		if err := cyc.AddFlow(f.From, f.To, f.Data); err != nil {
			t.Fatal(err)
		}
	}
	if got := cyc.Index().TopoOrder(); len(got) == cyc.NumSteps() {
		t.Fatalf("cyclic run fully ordered: %v", got)
	}
}

// TestIndexStats sanity-checks the footprint arithmetic.
func TestIndexStats(t *testing.T) {
	ix := Figure2().Index()
	st := ix.Stats()
	if st.Steps != ix.NumSteps() || st.Data != ix.NumData() {
		t.Fatalf("stats counts wrong: %+v", st)
	}
	if st.CSRBytes <= 0 || st.CSRBytes%4 != 0 {
		t.Fatalf("CSRBytes = %d", st.CSRBytes)
	}
	wantWords := (ix.NumSteps()+63)/64 + (ix.NumData()+63)/64
	if st.ClosureWords != wantWords {
		t.Fatalf("ClosureWords = %d, want %d", st.ClosureWords, wantWords)
	}
	if st.String() == "" {
		t.Fatal("empty stats string")
	}
}
