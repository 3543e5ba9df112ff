package run

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/spec"
)

// TestReconstructArenaEquivalent: a run adopted from another's tables
// answers every accessor as the original does, and hands the same tables
// back — the differential anchor for the v3 loader.
func TestReconstructArenaEquivalent(t *testing.T) {
	b := Figure2().Rebuild()
	if err := b.AnnotateInput("d1", map[string]string{"who": "joe", "when": "2008-04-07"}); err != nil {
		t.Fatal(err)
	}
	orig := mustBuild(t, b)
	got, err := ReconstructArena(orig.ID(), orig.SpecName(), orig.Tables())
	if err != nil {
		t.Fatal(err)
	}
	if d := Compare(orig, got); !d.SameShape() {
		t.Fatalf("arena reconstruction differs: %s", d)
	}
	for _, d := range orig.AllData() {
		po, _ := orig.Producer(d)
		pg, ok := got.Producer(d)
		if !ok || po != pg {
			t.Fatalf("producer of %q: %q vs %q (ok=%v)", d, po, pg, ok)
		}
		if !reflect.DeepEqual(orig.Consumers(d), got.Consumers(d)) {
			t.Fatalf("consumers of %q: %v vs %v", d, orig.Consumers(d), got.Consumers(d))
		}
	}
	if !reflect.DeepEqual(orig.InputMeta("d1"), got.InputMeta("d1")) {
		t.Fatalf("meta differs: %v vs %v", orig.InputMeta("d1"), got.InputMeta("d1"))
	}
	if !reflect.DeepEqual(orig.Flows(), got.Flows()) || !reflect.DeepEqual(orig.Tables(), got.Tables()) {
		t.Fatal("flows or tables differ")
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("reconstructed run fails validation: %v", err)
	}
}

// TestReconstructArenaAdoptsSlices: the assembled index must alias the
// caller's slices (the zero-copy contract), not copies of them.
func TestReconstructArenaAdoptsSlices(t *testing.T) {
	at := Figure2().Tables()
	got, err := ReconstructArena("r", "s", at)
	if err != nil {
		t.Fatal(err)
	}
	ix := got.Index()
	if len(at.InData) == 0 || len(at.ConStep) == 0 {
		t.Fatal("fixture too small to test aliasing")
	}
	if &ix.t.InData[0] != &at.InData[0] || &ix.t.ConStep[0] != &at.ConStep[0] || &ix.t.Producer[0] != &at.Producer[0] {
		t.Fatal("index slices were copied, not adopted")
	}
}

// TestAdoptedRunServesFromIndex: an adopted run answers by name from its
// index, and a run rebuilt from it with more steps and flows is a new run
// with its own index, the adopted one untouched.
func TestAdoptedRunServesFromIndex(t *testing.T) {
	b := Figure2().Rebuild()
	mustT(t, b.AnnotateInput("d1", map[string]string{"who": "joe"}))
	orig := mustBuild(t, b)
	got, err := ReconstructArena(orig.ID(), orig.SpecName(), orig.Tables())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSteps() != orig.NumSteps() || got.NumData() != orig.NumData() || got.NumEdges() != orig.NumEdges() {
		t.Fatalf("counts: %s vs %s", got, orig)
	}
	for _, d := range append(orig.AllData(), "d9999", "", "nope") {
		if got.HasData(d) != orig.HasData(d) || got.IsExternal(d) != orig.IsExternal(d) {
			t.Fatalf("HasData/IsExternal(%q) differ", d)
		}
		if id, ok := got.Index().DataID(d); ok && got.Index().DataName(id) != d {
			t.Fatalf("DataID(%q) resolves to %q", d, got.Index().DataName(id))
		}
	}
	for _, st := range orig.Steps() {
		id, ok := got.Index().StepID(st.ID)
		if !ok || got.Index().StepName(id) != st.ID || got.Index().StepModule(id) != st.Module {
			t.Fatalf("StepID(%q) = %d, %v", st.ID, id, ok)
		}
	}
	if !reflect.DeepEqual(got.InputMeta("d1"), orig.InputMeta("d1")) || got.Validate() != nil {
		t.Fatal("metadata or validation differ")
	}

	adopted := got.Index()
	more := got.Rebuild()
	mustT(t, more.AddStep("S99", "M1"))
	mustT(t, more.AddFlow("S1", "S99", []string{"d5000"}))
	mustT(t, more.AddFlow("S99", spec.Output, []string{"d5001"}))
	grown := mustBuild(t, more)
	if grown.NumSteps() != orig.NumSteps()+1 || !grown.HasData("d5001") || grown.IsExternal("d5001") ||
		!reflect.DeepEqual(grown.InputMeta("d1"), orig.InputMeta("d1")) {
		t.Fatalf("rebuilt run: %s", grown)
	}
	if got.Index() != adopted || got.NumSteps() != orig.NumSteps() || got.HasData("d5000") {
		t.Fatal("rebuilding changed the adopted run")
	}
	if _, ok := grown.Index().DataID("d5000"); !ok {
		t.Fatal("rebuilt index misses the new data")
	}
}

// TestRebuildLeavesRunUnchanged: a run rebuilt with a further step has its
// own index; the run it came from keeps its index and its contents.
func TestRebuildLeavesRunUnchanged(t *testing.T) {
	b := NewBuilder("inv", "spec")
	mustT(t, b.AddStep("S1", "M1"))
	mustT(t, b.AddFlow("INPUT", "S1", []string{"d1"}))
	r1 := mustBuild(t, b)
	ix1 := r1.Index()
	if ix1.NumSteps() != 1 || ix1.NumData() != 1 || r1.Index() != ix1 {
		t.Fatalf("initial index: %d steps %d data", ix1.NumSteps(), ix1.NumData())
	}
	more := r1.Rebuild()
	mustT(t, more.AddStep("S2", "M2"))
	mustT(t, more.AddFlow("S1", "S2", []string{"d2"}))
	r2 := mustBuild(t, more)
	if r2.Index() == ix1 || r2.Index().NumSteps() != 2 || r2.Index().NumData() != 2 {
		t.Fatalf("rebuilt index: %d steps %d data", r2.Index().NumSteps(), r2.Index().NumData())
	}
	if r1.Index() != ix1 || ix1.NumSteps() != 1 || ix1.NumData() != 1 {
		t.Fatal("the original run changed")
	}
}

// TestConcurrentAdoptedRunFirstUse: the topological order and the token
// tables of an adopted run are each built once however many goroutines ask
// first, name accessors answering beside them (run under -race).
func TestConcurrentAdoptedRunFirstUse(t *testing.T) {
	orig := Figure2()
	got, err := ReconstructArena(orig.ID(), orig.SpecName(), orig.Tables())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if len(got.Steps()) != orig.NumSteps() || len(got.Flows()) != orig.NumEdges() ||
				len(got.Index().TopoOrder()) != orig.NumSteps() || !got.HasData("d447") ||
				string(got.Index().Tokens().Data.At(0)) != `"d1"` ||
				got.Validate() != nil || len(got.Consumers("d410")) != len(orig.Consumers("d410")) {
				t.Error("adopted run answers differ under concurrent first use")
			}
		}()
	}
	wg.Wait()
}

// TestReconstructArenaRejectsCorruption: every invariant violation a forged
// v3 block could carry must come back as an error — never a panic, since the
// slices may alias a memory mapping.
func TestReconstructArenaRejectsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*ArenaTables)
		wantErr error
	}{
		{"modules length mismatch", func(a *ArenaTables) { a.StepModules = a.StepModules[:1] }, ErrBadArena},
		{"steps out of order", func(a *ArenaTables) { a.StepIDs[0], a.StepIDs[1] = a.StepIDs[1], a.StepIDs[0] }, ErrBadArena},
		{"empty data id", func(a *ArenaTables) { a.DataNames[0] = "" }, ErrBadArena},
		{"data out of order", func(a *ArenaTables) { a.DataNames[0], a.DataNames[1] = a.DataNames[1], a.DataNames[0] }, ErrBadArena},
		{"producer out of range", func(a *ArenaTables) { a.Producer[0] = int32(len(a.StepIDs)) }, ErrBadArena},
		{"producer disagrees with flows", func(a *ArenaTables) {
			for d := range a.Producer {
				if a.Producer[d] >= 0 {
					a.Producer[d] = -1
					return
				}
			}
		}, ErrBadArena},
		{"CSR offsets truncated", func(a *ArenaTables) { a.InOff = a.InOff[:len(a.InOff)-1] }, ErrBadArena},
		{"CSR offsets decrease", func(a *ArenaTables) { a.InOff[1] = a.InOff[len(a.InOff)-1] + 1 }, ErrBadArena},
		{"CSR value out of range", func(a *ArenaTables) { a.ConStep[0] = int32(len(a.StepIDs)) }, ErrBadArena},
		{"CSR row not ascending", func(a *ArenaTables) { a.InData[0], a.InData[1] = a.InData[1], a.InData[0] }, ErrBadArena},
		{"finals word count wrong", func(a *ArenaTables) { a.Finals = append(a.Finals, 0) }, ErrBadArena},
		{"finals bit beyond range", func(a *ArenaTables) { a.Finals[len(a.Finals)-1] |= 1 << 63 }, ErrBadArena},
		{"flow node out of range", func(a *ArenaTables) { a.Flows[0].From = 99 }, ErrBadFlow},
		{"flow into INPUT", func(a *ArenaTables) { a.Flows[0].To = NodeInput }, ErrBadFlow},
		{"self flow", func(a *ArenaTables) {
			a.Flows = append(a.Flows, InternedFlow{From: NodeStep0, To: NodeStep0, Data: []int32{0}})
		}, ErrBadFlow},
		{"flow without data", func(a *ArenaTables) {
			a.Flows = append(a.Flows, InternedFlow{From: NodeStep0, To: NodeOutput})
		}, ErrBadFlow},
		{"two producers", func(a *ArenaTables) {
			// Data produced by a step; claim INPUT produced it too, on an
			// edge INPUT -> consumer that does not exist yet.
			fromInput := map[int32]bool{}
			for _, f := range a.Flows {
				if f.From == NodeInput {
					fromInput[f.To] = true
				}
			}
			for _, f := range a.Flows {
				if f.From >= NodeStep0 && f.To >= NodeStep0 && !fromInput[f.To] {
					a.Flows = append(a.Flows, InternedFlow{From: NodeInput, To: f.To, Data: f.Data[:1]})
					return
				}
			}
			panic("fixture has no step-to-step flow into a step INPUT does not feed")
		}, ErrTwoProducers},
		{"flow data out of range", func(a *ArenaTables) { a.Flows[0].Data[0] = int32(len(a.DataNames)) }, ErrBadFlow},
		{"duplicate edge", func(a *ArenaTables) { a.Flows = append(a.Flows[:1], a.Flows...) }, ErrBadArena},
		{"flows out of order", func(a *ArenaTables) { a.Flows[0], a.Flows[1] = a.Flows[1], a.Flows[0] }, ErrBadArena},
		{"meta index out of range", func(a *ArenaTables) { a.Meta = map[int32]map[string]string{100000: {"k": "v"}} }, ErrBadFlow},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			at := Figure2().Tables()
			tc.mutate(&at)
			_, err := ReconstructArena("r", "s", at)
			if err == nil {
				t.Fatal("corruption accepted")
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("error %v, want %v", err, tc.wantErr)
			}
		})
	}
}
