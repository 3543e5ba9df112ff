package run

import (
	"errors"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/spec"
)

// internedTables derives the interned form of a run — natural-order step and
// data tables plus code/index flows — exactly as the v3 snapshot writer
// does.
func internedTables(r *Run) (steps []Step, data []string, flows []InternedFlow, meta map[int32]map[string]string) {
	steps = r.Steps()
	data = r.AllData()
	code := map[string]int32{spec.Input: NodeInput, spec.Output: NodeOutput}
	for i, st := range steps {
		code[st.ID] = int32(NodeStep0 + i)
	}
	idx := make(map[string]int32, len(data))
	for i, d := range data {
		idx[d] = int32(i)
	}
	for _, e := range r.Graph().Edges() {
		var ds []int32
		for _, d := range r.DataOn(e.From, e.To) { // natural order = ascending indexes
			ds = append(ds, idx[d])
		}
		flows = append(flows, InternedFlow{From: code[e.From], To: code[e.To], Data: ds})
	}
	sort.Slice(flows, func(i, j int) bool {
		if flows[i].From != flows[j].From {
			return flows[i].From < flows[j].From
		}
		return flows[i].To < flows[j].To
	})
	for _, d := range r.AnnotatedInputs() {
		if meta == nil {
			meta = make(map[int32]map[string]string)
		}
		meta[idx[d]] = r.InputMeta(d)
	}
	return steps, data, flows, meta
}

// arenaTables derives the arena form of a run from its compact index —
// exactly the tables the v3 snapshot stores.
func arenaTables(r *Run) ArenaTables {
	ix := r.Index()
	steps, data, flows, meta := internedTables(r)
	t := ArenaTables{
		StepIDs:     make([]string, len(steps)),
		StepModules: make([]string, len(steps)),
		DataNames:   data,
		Producer:    make([]int32, ix.NumData()),
		Flows:       flows,
		Meta:        meta,
	}
	for i, st := range steps {
		t.StepIDs[i] = st.ID
		t.StepModules[i] = st.Module
	}
	t.InOff = append(t.InOff, 0)
	t.OutOff = append(t.OutOff, 0)
	for s := 0; s < ix.NumSteps(); s++ {
		t.InData = append(t.InData, ix.InputsOf(int32(s))...)
		t.InOff = append(t.InOff, int32(len(t.InData)))
		t.OutData = append(t.OutData, ix.OutputsOf(int32(s))...)
		t.OutOff = append(t.OutOff, int32(len(t.OutData)))
	}
	t.ConOff = append(t.ConOff, 0)
	t.Finals = bitset.New(ix.NumData())
	for d := 0; d < ix.NumData(); d++ {
		t.Producer[d] = ix.Producer(int32(d))
		t.ConStep = append(t.ConStep, ix.ConsumersOf(int32(d))...)
		t.ConOff = append(t.ConOff, int32(len(t.ConStep)))
		if ix.IsFinal(int32(d)) {
			t.Finals.Add(int32(d))
		}
	}
	return t
}

// TestReconstructArenaEquivalent: the arena path must rebuild a run that is
// element-identical to the original, with an index that matches buildIndex's
// output field for field — the differential anchor for the v3 loader.
func TestReconstructArenaEquivalent(t *testing.T) {
	orig := Figure2()
	if err := orig.AnnotateInput("d1", map[string]string{"who": "joe", "when": "2008-04-07"}); err != nil {
		t.Fatal(err)
	}
	at := arenaTables(orig)
	got, err := ReconstructArena(orig.ID(), orig.SpecName(), at)
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
	if err := got.Validate(); err != nil {
		t.Fatalf("reconstructed run fails validation: %v", err)
	}

	pre := got.Index()
	ref := buildIndex(got)
	if !reflect.DeepEqual(pre.stepName, ref.stepName) || !reflect.DeepEqual(pre.dataName, ref.dataName) {
		t.Fatal("interning tables differ")
	}
	if !reflect.DeepEqual(pre.producer, ref.producer) {
		t.Fatalf("producer columns differ:\n%v\n%v", pre.producer, ref.producer)
	}
	if !reflect.DeepEqual(pre.inOff, ref.inOff) || !reflect.DeepEqual(pre.inData, ref.inData) ||
		!reflect.DeepEqual(pre.outOff, ref.outOff) || !reflect.DeepEqual(pre.outData, ref.outData) ||
		!reflect.DeepEqual(pre.conOff, ref.conOff) || !reflect.DeepEqual(pre.conStep, ref.conStep) {
		t.Fatal("CSR adjacency differs")
	}
	if !reflect.DeepEqual(pre.finals, ref.finals) {
		t.Fatal("finals bitsets differ")
	}
}

// TestReconstructArenaAdoptsSlices: the assembled index must alias the
// caller's slices (the zero-copy contract), not copies of them.
func TestReconstructArenaAdoptsSlices(t *testing.T) {
	at := arenaTables(Figure2())
	got, err := ReconstructArena("r", "s", at)
	if err != nil {
		t.Fatal(err)
	}
	ix := got.Index()
	if len(at.InData) == 0 || len(at.ConStep) == 0 {
		t.Fatal("fixture too small to test aliasing")
	}
	if &ix.inData[0] != &at.InData[0] || &ix.conStep[0] != &at.ConStep[0] || &ix.producer[0] != &at.Producer[0] {
		t.Fatal("index slices were copied, not adopted")
	}
}

// TestAdoptedRunServesFromIndex: what the serving path asks of an adopted run
// is answered without building its string relations; the first accessor
// that needs them builds them; and a mutator turns the run into an ordinary
// heap run with a fresh index, leaving the adopted index as it was.
func TestAdoptedRunServesFromIndex(t *testing.T) {
	orig := Figure2()
	if err := orig.AnnotateInput("d1", map[string]string{"who": "joe"}); err != nil {
		t.Fatal(err)
	}
	got, err := ReconstructArena(orig.ID(), orig.SpecName(), arenaTables(orig))
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
	if got.steps != nil || got.g != nil || got.producer != nil {
		t.Fatal("serving accessors built the string relations")
	}

	if !reflect.DeepEqual(got.Steps(), orig.Steps()) || got.Graph().NumEdges() != orig.NumEdges() {
		t.Fatal("string relations differ once built")
	}

	adopted := got.Index()
	if err := got.AddStep("S99", "M1"); err != nil {
		t.Fatal(err)
	}
	if err := got.AddFlow("S1", "S99", []string{"d5000"}); err != nil {
		t.Fatal(err)
	}
	if err := got.AddFlow("S99", spec.Output, []string{"d5001"}); err != nil {
		t.Fatal(err)
	}
	if got.NumSteps() != orig.NumSteps()+1 || !got.HasData("d5001") || got.IsExternal("d5001") {
		t.Fatalf("mutated run: %s", got)
	}
	fresh := got.Index()
	if fresh == adopted || fresh.NumSteps() != orig.NumSteps()+1 || adopted.NumSteps() != orig.NumSteps() {
		t.Fatal("mutation did not replace the index, or touched the adopted one")
	}
	if _, ok := fresh.DataID("d5000"); !ok {
		t.Fatal("rebuilt index misses the new data")
	}
}

// TestConcurrentAdoptedRunFirstUse: the string relations and the topological
// order of an adopted run are each built once however many goroutines ask
// first, serving accessors answering beside them (run under -race).
func TestConcurrentAdoptedRunFirstUse(t *testing.T) {
	orig := Figure2()
	got, err := ReconstructArena(orig.ID(), orig.SpecName(), arenaTables(orig))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if len(got.Steps()) != orig.NumSteps() || got.Graph().NumEdges() != orig.NumEdges() ||
				len(got.Index().TopoOrder()) != orig.NumSteps() || !got.HasData("d447") ||
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
			at := arenaTables(Figure2())
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
