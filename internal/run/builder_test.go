package run_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/gen"
	"repro/internal/jsontok"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/wflog"
)

// A fuzz input is a script of builder calls, every argument a uvarint:
//
//	0 node module          AddStep
//	1 node node n data*n   AddFlow
//	2 data key             AnnotateInput(data, {"k<key>": "v"})
//
// Names are drawn from small families, so that scripts collide on them:
// a node is INPUT, OUTPUT, "" or a step; a step or data value picks one of
// four shapes (S12, S012, T12, s12x) so natural order meets leading zeros
// and names without a number.
type script struct{ b []byte }

func (s *script) next() uint64 {
	v, n := binary.Uvarint(s.b)
	if n <= 0 {
		s.b = nil
		return 0
	}
	s.b = s.b[n:]
	return v
}

func uvarints(vs ...uint64) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.AppendUvarint(out, v)
	}
	return out
}

func shaped(v uint64, digits, zero, letter, plain string) string {
	n := strconv.FormatUint(v/4, 10)
	switch v % 4 {
	case 0:
		return digits + n
	case 1:
		return zero + n
	case 2:
		return letter + n
	}
	return plain + n + "x"
}

func nodeName(v uint64) string {
	switch v {
	case 0:
		return spec.Input
	case 1:
		return spec.Output
	case 2:
		return ""
	}
	return shaped(v-3, "S", "S0", "T", "s")
}

func dataName(v uint64) string {
	if v == 0 {
		return ""
	}
	return shaped(v-1, "d", "d0", "e", "d")
}

func moduleName(v uint64) string {
	if v == 0 {
		return ""
	}
	return "M" + strconv.FormatUint(v%12, 10)
}

// builderCalls is what the Builder and the oracle both take.
type builderCalls interface {
	AddStep(id, module string) error
	AddFlow(from, to string, data []string) error
	AnnotateInput(d string, meta map[string]string) error
}

type call func(builderCalls) error

func decodeScript(in []byte) []call {
	s := &script{b: in}
	var calls []call
	for len(s.b) > 0 {
		switch s.next() % 3 {
		case 0:
			id, module := nodeName(s.next()), moduleName(s.next())
			calls = append(calls, func(b builderCalls) error { return b.AddStep(id, module) })
		case 1:
			from, to := nodeName(s.next()), nodeName(s.next())
			data := make([]string, s.next()%256)
			for i := range data {
				data[i] = dataName(s.next())
			}
			calls = append(calls, func(b builderCalls) error { return b.AddFlow(from, to, data) })
		case 2:
			d, kv := dataName(s.next()), map[string]string{"k" + strconv.FormatUint(s.next()%4, 10): "v"}
			calls = append(calls, func(b builderCalls) error { return b.AnnotateInput(d, kv) })
		}
	}
	return calls
}

// encodeRun writes a built run as a script: its steps in reverse natural
// order, so they arrive out of order, its flows, and its annotations. The
// run's names must be S<n> and d<n>; modules are renamed by first use.
func encodeRun(r *run.Run) []byte {
	var out []byte
	put := func(vs ...uint64) { out = append(out, uvarints(vs...)...) }
	num := func(name, prefix string) uint64 {
		n, err := strconv.ParseUint(strings.TrimPrefix(name, prefix), 10, 64)
		if err != nil {
			panic(fmt.Sprintf("encodeRun: name %q", name))
		}
		return 4 * n
	}
	node := func(name string) uint64 {
		switch name {
		case spec.Input:
			return 0
		case spec.Output:
			return 1
		}
		return 3 + num(name, "S")
	}
	modules := map[string]uint64{}
	steps := r.Steps()
	slices.Reverse(steps)
	for _, st := range steps {
		if _, ok := modules[st.Module]; !ok {
			modules[st.Module] = uint64(len(modules) + 1)
		}
		put(0, node(st.ID), modules[st.Module])
	}
	for _, f := range r.Flows() {
		put(1, node(f.From), node(f.To), uint64(len(f.Data)))
		for _, d := range f.Data {
			put(1 + num(d, "d"))
		}
	}
	for _, d := range r.AnnotatedInputs() {
		put(2, 1+num(d, "d"), 0)
	}
	return out
}

// fuzzSpec is what ConformsTo is asked about: modules M1..M9 and a fixed
// scatter of edges among them.
func fuzzSpec() *spec.Spec {
	s := spec.New("fz")
	for i := 1; i <= 9; i++ {
		s.MustAddModule(spec.Module{Name: "M" + strconv.Itoa(i)})
	}
	for i := 1; i <= 9; i++ {
		for j := 1; j <= 9; j++ {
			if (i*7+j*3)%4 != 0 {
				s.MustAddEdge("M"+strconv.Itoa(i), "M"+strconv.Itoa(j))
			}
		}
	}
	return s
}

var errClasses = []error{run.ErrBadStep, run.ErrBadFlow, run.ErrTwoProducers, run.ErrNotExternal,
	run.ErrCyclicRun, run.ErrDisconnected, run.ErrNonConformant}

// errClass names which of the run package's errors err is ("" for nil).
func errClass(err error) string {
	if err == nil {
		return ""
	}
	for _, c := range errClasses {
		if errors.Is(err, c) {
			return c.Error()
		}
	}
	return "unclassified: " + err.Error()
}

// FuzzRunBuilder feeds one script to the Builder and to the string oracle.
// The first failing call must fail alike on both and ends the script (a
// failing call leaves the builder as it was, so the oracle is rebuilt from
// the calls before it); the built run must then answer every accessor as
// the oracle does.
func FuzzRunBuilder(f *testing.F) {
	fig2 := run.Figure2().Rebuild()
	if err := fig2.AnnotateInput("d1", map[string]string{"who": "joe"}); err != nil {
		f.Fatal(err)
	}
	r, err := fig2.Build()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeRun(r))
	g := gen.NewGenerator(7)
	for i, class := range gen.Classes() {
		s := g.Workflow(class, fmt.Sprintf("class%d", i+1))
		r, _, err := g.Run(s, gen.Small(), "seed")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeRun(r))
	}
	// Steps S2, S1 (nodes 11, 7); repeated edges and data (d3, d1, d1 are
	// 13, 5, 5); annotations; then each misuse on its own.
	valid := uvarints(0, 11, 2, 0, 7, 1,
		1, 0, 7, 3, 13, 5, 5, 1, 0, 7, 1, 9,
		1, 7, 11, 2, 21, 17, 1, 7, 11, 1, 17, 1, 11, 1, 1, 25,
		2, 5, 0, 2, 5, 1)
	f.Add(valid)
	for _, misuse := range [][]uint64{
		{0, 7, 3},            // duplicate step
		{0, 0, 3},            // step named INPUT
		{1, 1, 7, 1, 29},     // flow out of OUTPUT
		{1, 7, 0, 1, 29},     // flow into INPUT
		{1, 15, 7, 1, 29},    // unknown step S3
		{1, 0, 11, 1, 17},    // d4, produced by S1, claimed by INPUT
		{1, 7, 11, 2, 29, 0}, // empty data id
		{2, 17, 0},           // annotating produced data
	} {
		f.Add(append(slices.Clone(valid), uvarints(misuse...)...))
	}
	sp := fuzzSpec()
	f.Fuzz(func(t *testing.T, in []byte) {
		calls := decodeScript(in)
		b, o := run.NewBuilder("fz", "fz"), run.NewOracle("fz", "fz")
		for i, c := range calls {
			errB, errO := c(b), c(o)
			if errClass(errB) != errClass(errO) {
				t.Fatalf("call %d: builder %v, oracle %v", i, errB, errO)
			}
			if errB != nil {
				o = run.NewOracle("fz", "fz")
				for _, c := range calls[:i] {
					_ = c(o)
				}
				break
			}
		}
		r, err := b.Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		compareWithOracle(t, r, o, sp)
	})
}

func compareWithOracle(t *testing.T, r *run.Run, o *run.Oracle, sp *spec.Spec) {
	t.Helper()
	check := func(what string, got, want any) {
		t.Helper()
		g, w := reflect.ValueOf(got), reflect.ValueOf(want)
		if reflect.DeepEqual(got, want) || g.Kind() == reflect.Slice && g.Len() == 0 && w.Len() == 0 {
			return // nil and empty lists alike
		}
		t.Fatalf("%s: run %v, oracle %v", what, got, want)
	}
	check("Steps", r.Steps(), o.Steps())
	check("StepIDs", r.StepIDs(), o.StepIDs())
	check("AllData", r.AllData(), o.AllData())
	check("NumEdges", r.NumEdges(), o.NumEdges())
	check("Flows", r.Flows(), o.Flows())
	check("AnnotatedInputs", r.AnnotatedInputs(), o.AnnotatedInputs())
	for _, d := range append(o.AllData(), "", "nope") {
		p, ok := r.Producer(d)
		po, oko := o.Producer(d)
		check("Producer("+d+")", [2]any{p, ok}, [2]any{po, oko})
		check("HasData("+d+")", r.HasData(d), oko)
		check("IsExternal("+d+")", r.IsExternal(d), o.IsExternal(d))
		check("Consumers("+d+")", r.Consumers(d), o.Consumers(d))
		check("InputMeta("+d+")", r.InputMeta(d), o.InputMeta(d))
	}
	for _, n := range append(o.StepIDs(), spec.Input, spec.Output, "nope") {
		check("InputsOf("+n+")", r.InputsOf(n), o.InputsOf(n))
		check("OutputsOf("+n+")", r.OutputsOf(n), o.OutputsOf(n))
	}
	for _, f := range o.Flows() {
		check("DataOn("+f.From+","+f.To+")", r.DataOn(f.From, f.To), f.Data)
		check("DataOn("+f.To+","+f.From+")", r.DataOn(f.To, f.From), o.DataOn(f.To, f.From))
	}
	for m := 0; m < 12; m++ {
		module := moduleName(uint64(m))
		check("StepsOfModule("+module+")", r.StepsOfModule(module), o.StepsOfModule(module))
	}
	check("Stats", r.Stats(), o.Stats())
	check("ConformsTo", errClass(r.ConformsTo(sp)), errClass(o.ConformsTo(sp)))
	valid := errClass(o.Validate())
	check("Validate", errClass(r.Validate()), valid)
	if valid == "" {
		got, errR := r.ToLog()
		want, errO := o.ToLog()
		if errR != nil || errO != nil {
			t.Fatalf("ToLog of a valid run: %v, %v", errR, errO)
		}
		check("ToLog", got, want)
	}
}

// TestHeapRunHoldsOneCopy: a run ingested from its log keeps its index and
// nothing beside it — no second representation, and none of the
// allocations its names arrived in. Its live heap is held to that of a run
// adopted from copies of its own tables.
func TestHeapRunHoldsOneCopy(t *testing.T) {
	_, events, err := run.Execute(spec.Phylogenomics(), run.Config{
		RunID: "heap", Seed: 5, LoopIter: [2]int{600, 600}, DataPerStep: [2]int{5, 8}, UserInput: [2]int{5, 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	if err := wflog.Write(&log, events); err != nil {
		t.Fatal(err)
	}
	events = nil
	live := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // and what sync.Pools held
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	base := live()
	l := run.NewLogLoader("heap", "phylogenomics")
	dec := wflog.NewDecoder(bytes.NewReader(log.Bytes()))
	for dec.Next() {
		if err := l.Add(dec.Event()); err != nil {
			t.Fatal(err)
		}
	}
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	heap, err := l.Finish()
	if err != nil {
		t.Fatal(err)
	}
	l, dec = nil, nil
	heapBytes := live() - base
	runtime.KeepAlive(&log) // counted in base

	base = live()
	twin, err := run.ReconstructArena(heap.ID(), heap.SpecName(), copyTables(heap.Tables()))
	if err != nil {
		t.Fatal(err)
	}
	twinBytes := live() - base
	runtime.KeepAlive(heap)
	runtime.KeepAlive(twin)

	t.Logf("%s: ingested %.2f MB, adopted copy %.2f MB", heap, float64(heapBytes)/1e6, float64(twinBytes)/1e6)
	if heap.NumSteps() != 1804 || heap.NumData() != 11726 {
		t.Fatalf("fixture drifted: %s", heap)
	}
	if float64(heapBytes) > 1.15*float64(twinBytes) {
		t.Fatalf("ingested run holds %d bytes, %.2fx its tables' %d", heapBytes, float64(heapBytes)/float64(twinBytes), twinBytes)
	}
}

// copyTables deep-copies arena tables, names included.
func copyTables(t run.ArenaTables) run.ArenaTables {
	return run.ArenaTables{
		Names:   strings.Clone(t.Names),
		StepOff: slices.Clone(t.StepOff), ModuleOff: slices.Clone(t.ModuleOff), DataOff: slices.Clone(t.DataOff),
		Producer: slices.Clone(t.Producer),
		InOff:    slices.Clone(t.InOff), InData: slices.Clone(t.InData),
		OutOff: slices.Clone(t.OutOff), OutData: slices.Clone(t.OutData),
		ConOff: slices.Clone(t.ConOff), ConStep: slices.Clone(t.ConStep),
		Finals: bitset.Set(slices.Clone([]uint64(t.Finals))),
	}
}

// TestTokenTablesReuseNameOffsets: a run whose names need no escaping holds
// its token tables as two arenas, each name's bytes plus three (two quotes
// and a comma), and no offsets of their own: an entry starts where its name
// does in the run's arena, shifted by three per name before it. Offsets of
// their own cost four bytes more per name, 1.6x the arenas on this run.
func TestTokenTablesReuseNameOffsets(t *testing.T) {
	r, _, err := run.Execute(spec.Phylogenomics(), run.Config{
		RunID: "tokens", Seed: 5, LoopIter: [2]int{600, 600}, DataPerStep: [2]int{5, 8}, UserInput: [2]int{5, 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	ix := r.Index()
	arenas := 0
	for s := int32(0); s < int32(ix.NumSteps()); s++ {
		arenas += len(ix.StepName(s)) + 3
	}
	for d := int32(0); d < int32(ix.NumData()); d++ {
		arenas += len(ix.DataName(d)) + 3
	}
	live := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // and what sync.Pools held
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	if ix.TokenBytes() != 0 {
		t.Fatalf("TokenBytes() = %d before the tables were asked for", ix.TokenBytes())
	}
	base := live()
	tok := ix.Tokens()
	held := live() - base
	runtime.KeepAlive(r)
	t.Logf("%s: token tables hold %d bytes, arenas %d", r, held, arenas)
	if ix.TokenBytes() != arenas {
		t.Fatalf("TokenBytes() = %d, want the arenas' %d", ix.TokenBytes(), arenas)
	}
	if float64(held) > 1.15*float64(arenas) { // allocations round up to their size class

		t.Fatalf("token tables hold %d bytes, %.2fx their arenas' %d", held, float64(held)/float64(arenas), arenas)
	}
	for d := int32(0); d < int32(ix.NumData()); d++ {
		if got, want := tok.Data.At(d), jsontok.AppendString(nil, ix.DataName(d)); !bytes.Equal(got, want) {
			t.Fatalf("data token %d = %s, want %s", d, got, want)
		}
	}
	for s := int32(0); s < int32(ix.NumSteps()); s++ {
		if got, want := tok.Step.At(s), jsontok.AppendString(nil, ix.StepName(s)); !bytes.Equal(got, want) {
			t.Fatalf("step token %d = %s, want %s", s, got, want)
		}
	}
}
