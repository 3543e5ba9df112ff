package run

import (
	"errors"
	"reflect"
	"slices"
	"strings"
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
// slices may alias a memory mapping. The flow cases forge the rows a flow is
// derived from; a run stores no flows of its own.
func TestReconstructArenaRejectsCorruption(t *testing.T) {
	produced := func(a *ArenaTables) (d, p int32) { // the first produced data object and its producer
		for d, p := range a.Producer {
			if p >= 0 {
				return int32(d), p
			}
		}
		panic("fixture produces nothing")
	}
	nSteps := func(a *ArenaTables) int32 { return int32(len(a.StepOff) - 1) }
	nData := func(a *ArenaTables) int32 { return int32(len(a.DataOff) - 1) }
	cases := []struct {
		name    string
		mutate  func(*ArenaTables)
		wantErr error
	}{
		{"modules length mismatch", func(a *ArenaTables) { a.ModuleOff = a.ModuleOff[:2] }, ErrBadArena},
		{"name offsets beyond the arena", func(a *ArenaTables) { a.DataOff[len(a.DataOff)-1]++ }, ErrBadArena},
		{"steps out of order", func(a *ArenaTables) {
			editNames(a, func(steps, _, _ []string) { steps[0], steps[1] = steps[1], steps[0] })
		}, ErrBadArena},
		{"empty data id", func(a *ArenaTables) { editNames(a, func(_, _, data []string) { data[0] = "" }) }, ErrBadArena},
		{"data out of order", func(a *ArenaTables) {
			editNames(a, func(_, _, data []string) { data[0], data[1] = data[1], data[0] })
		}, ErrBadArena},
		{"producer out of range", func(a *ArenaTables) { a.Producer[0] = nSteps(a) }, ErrBadArena},
		{"producer disagrees with flows", func(a *ArenaTables) {
			d, _ := produced(a)
			a.Producer[d] = -1 // its producer's outputs row still lists it
		}, ErrBadArena},
		{"CSR offsets truncated", func(a *ArenaTables) { a.InOff = a.InOff[:len(a.InOff)-1] }, ErrBadArena},
		{"CSR offsets decrease", func(a *ArenaTables) { a.InOff[1] = a.InOff[len(a.InOff)-1] + 1 }, ErrBadArena},
		{"CSR value out of range", func(a *ArenaTables) { a.InData[0] = nData(a) }, ErrBadArena},
		{"CSR row not ascending", func(a *ArenaTables) { a.InData[0], a.InData[1] = a.InData[1], a.InData[0] }, ErrBadArena},
		{"finals word count wrong", func(a *ArenaTables) { a.Finals = append(a.Finals, 0) }, ErrBadArena},
		{"finals bit beyond range", func(a *ArenaTables) { a.Finals[len(a.Finals)-1] |= 1 << 63 }, ErrBadArena},
		// A flow into a step that does not exist: a consumer out of range.
		{"flow node out of range", func(a *ArenaTables) { a.ConStep[0] = nSteps(a) }, ErrBadArena},
		// A flow carrying data that does not exist: an output out of range.
		{"flow data out of range", func(a *ArenaTables) { a.OutData[0] = nData(a) }, ErrBadArena},
		{"self flow", func(a *ArenaTables) {
			d, p := produced(a)
			a.ConOff, a.ConStep = addPair(a.ConOff, a.ConStep, d, p)
			a.InOff, a.InData = addPair(a.InOff, a.InData, p, d)
		}, ErrBadFlow},
		{"two producers", func(a *ArenaTables) {
			d, p := produced(a)
			a.OutOff, a.OutData = addPair(a.OutOff, a.OutData, (p+1)%nSteps(a), d)
		}, ErrTwoProducers},
		// The same edge twice: a step listed twice as a data object's reader.
		{"duplicate edge", func(a *ArenaTables) {
			a.ConOff, a.ConStep = addPair(a.ConOff, a.ConStep, 0, a.ConStep[a.ConOff[0]])
		}, ErrBadArena},
		// d1's only reader is S1; the forged row says S2, whose inputs do not
		// list d1. Provenance (inputs) and derivation (consumers) disagreed.
		{"consumers not the transpose of inputs", func(a *ArenaTables) { a.ConStep[a.ConOff[0]] = 1 }, ErrBadArena},
		{"outputs miss a produced data object", func(a *ArenaTables) {
			d, p := produced(a)
			a.OutOff, a.OutData = dropPair(a.OutOff, a.OutData, p, d)
		}, ErrBadArena},
		{"data on no flow", func(a *ArenaTables) {
			for d := int32(0); d < nData(a); d++ {
				if a.Finals.Has(d) && a.ConOff[d] == a.ConOff[d+1] {
					a.Finals[d/64] &^= 1 << (d % 64) // final data nobody reads, now not final either
					return
				}
			}
			panic("fixture has no final data that no step reads")
		}, ErrBadArena},
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

// editNames hands the name tables to edit as strings and lays the edited
// names out in a fresh arena, offsets and all: how a test forges a name.
func editNames(a *ArenaTables, edit func(steps, modules, data []string)) {
	offs := [][]uint32{a.StepOff, a.ModuleOff, a.DataOff}
	tables := [][]string{a.namesWhere(a.StepOff, every), a.namesWhere(a.ModuleOff, every), a.namesWhere(a.DataOff, every)}
	edit(tables[0], tables[1], tables[2])
	var names strings.Builder
	for i, off := range offs {
		for k, name := range tables[i] {
			off[k] = uint32(names.Len())
			names.WriteString(name)
		}
		off[len(tables[i])] = uint32(names.Len())
	}
	a.Names = names.String()
}

// addPair returns copies of a CSR pair with v inserted into row in order
// (a repeat when row already holds v).
func addPair(off, vals []int32, row, v int32) ([]int32, []int32) {
	off, vals = slices.Clone(off), slices.Clone(vals)
	i, _ := slices.BinarySearch(vals[off[row]:off[row+1]], v)
	vals = slices.Insert(vals, int(off[row])+i, v)
	for k := row + 1; k < int32(len(off)); k++ {
		off[k]++
	}
	return off, vals
}

// dropPair returns copies of a CSR pair with v taken out of row.
func dropPair(off, vals []int32, row, v int32) ([]int32, []int32) {
	off, vals = slices.Clone(off), slices.Clone(vals)
	i, ok := slices.BinarySearch(vals[off[row]:off[row+1]], v)
	if !ok {
		panic("dropPair: row does not hold the value")
	}
	vals = slices.Delete(vals, int(off[row])+i, int(off[row])+i+1)
	for k := row + 1; k < int32(len(off)); k++ {
		off[k]--
	}
	return off, vals
}
