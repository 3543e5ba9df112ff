package run

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/spec"
)

func TestAddStepValidation(t *testing.T) {
	b := NewBuilder("r1", "s")
	if err := b.AddStep("", "M1"); !errors.Is(err, ErrBadStep) {
		t.Fatalf("empty id: %v", err)
	}
	if err := b.AddStep("S1", ""); !errors.Is(err, ErrBadStep) {
		t.Fatalf("empty module: %v", err)
	}
	if err := b.AddStep(spec.Input, "M1"); !errors.Is(err, ErrBadStep) {
		t.Fatalf("reserved id: %v", err)
	}
	if err := b.AddStep("S1", "M1"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddStep("S1", "M2"); !errors.Is(err, ErrBadStep) {
		t.Fatalf("duplicate id: %v", err)
	}
}

func TestAddFlowValidation(t *testing.T) {
	b := NewBuilder("r1", "s")
	mustT(t, b.AddStep("S1", "M1"))
	mustT(t, b.AddStep("S2", "M2"))
	cases := []struct {
		name     string
		from, to string
		data     []string
		want     error
	}{
		{"from OUTPUT", spec.Output, "S1", []string{"d1"}, ErrBadFlow},
		{"into INPUT", "S1", spec.Input, []string{"d1"}, ErrBadFlow},
		{"self", "S1", "S1", []string{"d1"}, ErrBadFlow},
		{"no data", "S1", "S2", nil, ErrBadFlow},
		{"unknown step", "S1", "S9", []string{"d1"}, ErrBadFlow},
		{"empty data id", "S1", "S2", []string{""}, ErrBadFlow},
	}
	for _, tc := range cases {
		if err := b.AddFlow(tc.from, tc.to, tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	mustT(t, b.AddFlow("S1", "S2", []string{"d1"}))
}

func TestTwoProducersRejected(t *testing.T) {
	b := NewBuilder("r1", "s")
	mustT(t, b.AddStep("S1", "M1"))
	mustT(t, b.AddStep("S2", "M2"))
	mustT(t, b.AddStep("S3", "M3"))
	mustT(t, b.AddFlow("S1", "S3", []string{"d9"}))
	if err := b.AddFlow("S2", "S3", []string{"d9"}); !errors.Is(err, ErrTwoProducers) {
		t.Fatalf("second producer accepted: %v", err)
	}
	// Same producer on a second edge is fine (fan-out of one object).
	mustT(t, b.AddFlow("S1", "S2", []string{"d9"}))
	// External data conflicting with a produced one is rejected.
	if err := b.AddFlow(spec.Input, "S2", []string{"d9"}); !errors.Is(err, ErrTwoProducers) {
		t.Fatalf("external redefinition accepted: %v", err)
	}
}

func TestProducerConsumerAccounting(t *testing.T) {
	r := Figure2()
	if p, ok := r.Producer("d413"); !ok || p != "S6" {
		t.Fatalf("Producer(d413) = %q, %v", p, ok)
	}
	if p, ok := r.Producer("d1"); !ok || p != "" {
		t.Fatalf("Producer(d1) = %q, %v (should be external)", p, ok)
	}
	if !r.IsExternal("d415") || r.IsExternal("d413") {
		t.Fatal("IsExternal wrong")
	}
	if _, ok := r.Producer("d999"); ok {
		t.Fatal("unknown data has a producer")
	}
	if got := r.Consumers("d413"); !reflect.DeepEqual(got, []string{"S10"}) {
		t.Fatalf("Consumers(d413) = %v", got)
	}
}

func TestFigure2PaperFacts(t *testing.T) {
	r := Figure2()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.NumSteps() != 10 {
		t.Fatalf("NumSteps = %d, want 10 (S1..S10)", r.NumSteps())
	}
	// "the immediate provenance of the data object d413 ... is the step
	// with id S6, which is an instance of the module M4, and its input set
	// of data objects {d412}".
	if p, _ := r.Producer("d413"); p != "S6" {
		t.Fatalf("producer of d413 = %s", p)
	}
	if !slices.Contains(r.StepsOfModule("M4"), "S6") {
		t.Fatalf("S6 is not a step of M4: %v", r.StepsOfModule("M4"))
	}
	if got := r.InputsOf("S6"); !reflect.DeepEqual(got, []string{"d412"}) {
		t.Fatalf("InputsOf(S6) = %v", got)
	}
	// "S2, which is an instance of the module M3, and its input set of data
	// objects {d308,...,d408}".
	if !slices.Contains(r.StepsOfModule("M3"), "S2") {
		t.Fatalf("S2 is not a step of M3: %v", r.StepsOfModule("M3"))
	}
	if got := r.InputsOf("S2"); !reflect.DeepEqual(got, DataIDs(308, 408)) {
		t.Fatalf("InputsOf(S2) = %s", FormatDataSet(got))
	}
	// Two executions of M3: S2 and S5 (loop executed twice).
	if got := r.StepsOfModule("M3"); !reflect.DeepEqual(got, []string{"S2", "S5"}) {
		t.Fatalf("StepsOfModule(M3) = %v", got)
	}
	// d447 is the final output; d1..d100 the initial inputs.
	if got := r.FinalOutputs(); !reflect.DeepEqual(got, []string{"d447"}) {
		t.Fatalf("FinalOutputs = %v", got)
	}
	ext := r.ExternalInputs()
	if len(ext) != 131 { // d1..d100 plus d415..d445
		t.Fatalf("ExternalInputs count = %d, want 131", len(ext))
	}
	if ext[0] != "d1" || ext[100] != "d415" {
		t.Fatalf("ExternalInputs order wrong: %v ...", ext[:3])
	}
}

func TestFigure2ConformsToSpec(t *testing.T) {
	r := Figure2()
	s := spec.Phylogenomics()
	if err := r.ConformsTo(s); err != nil {
		t.Fatal(err)
	}
	// Wrong spec name.
	other := spec.New("other")
	if err := r.ConformsTo(other); !errors.Is(err, ErrNonConformant) {
		t.Fatalf("wrong spec accepted: %v", err)
	}
}

func TestConformsToCatchesBadEdges(t *testing.T) {
	s := spec.Phylogenomics()
	b := NewBuilder("bad", "phylogenomics")
	mustT(t, b.AddStep("S1", "M1"))
	mustT(t, b.AddStep("S2", "M7"))
	mustT(t, b.AddFlow(spec.Input, "S1", []string{"d1"}))
	mustT(t, b.AddFlow("S1", "S2", []string{"d2"})) // no spec edge M1 -> M7
	mustT(t, b.AddFlow("S2", spec.Output, []string{"d3"}))
	if err := mustBuild(t, b).ConformsTo(s); !errors.Is(err, ErrNonConformant) {
		t.Fatalf("bad flow accepted: %v", err)
	}
	b2 := NewBuilder("bad2", "phylogenomics")
	mustT(t, b2.AddStep("S1", "M99"))
	mustT(t, b2.AddFlow(spec.Input, "S1", []string{"d1"}))
	mustT(t, b2.AddFlow("S1", spec.Output, []string{"d2"}))
	if err := mustBuild(t, b2).ConformsTo(s); !errors.Is(err, ErrNonConformant) {
		t.Fatalf("unknown module accepted: %v", err)
	}
}

func TestValidateDisconnected(t *testing.T) {
	b := NewBuilder("r", "s")
	mustT(t, b.AddStep("S1", "M1"))
	mustT(t, b.AddStep("S2", "M2"))
	mustT(t, b.AddFlow(spec.Input, "S1", []string{"d1"}))
	mustT(t, b.AddFlow("S1", spec.Output, []string{"d2"}))
	mustT(t, b.AddFlow("S1", "S2", []string{"d3"}))
	if err := mustBuild(t, b).Validate(); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("dead-end step accepted: %v", err)
	}
}

func TestNaturalOrdering(t *testing.T) {
	if !lessNatural("S2", "S10") {
		t.Fatal("S2 must sort before S10")
	}
	if !lessNatural("d9", "d308") {
		t.Fatal("d9 must sort before d308")
	}
	if lessNatural("d10", "d2") {
		t.Fatal("d10 must not sort before d2")
	}
	if !lessNatural("a1", "b1") {
		t.Fatal("prefix ordering broken")
	}
	r := Figure2()
	ids := r.StepIDs()
	if ids[0] != "S1" || ids[9] != "S10" || ids[1] != "S2" {
		t.Fatalf("StepIDs order: %v", ids)
	}
	// Where the digits are read: leading zeros, the int boundary, all-digit
	// and empty names and a non-ASCII prefix, against the strconv reference.
	for _, c := range []struct {
		s      string
		prefix string
		n      int
	}{
		{"d7", "d", 7},
		{"d007", "d", 7},
		{"d000", "d", 0},
		{"9223372036854775807", "", math.MaxInt},
		{"d9223372036854775807", "d", math.MaxInt},
		{"d9223372036854775808", "d9223372036854775808", -1},
		{"d12345678901234567890", "d12345678901234567890", -1},
		{"d00000000000000000007", "d", 7},
		{"42", "", 42},
		{"", "", -1},
		{"d", "d", -1},
		{"é12", "é", 12},
	} {
		p, n := splitNatural(c.s)
		rp, rn := atoiSplitNatural(c.s)
		if p != c.prefix || n != c.n || p != rp || n != rn {
			t.Errorf("splitNatural(%q) = %q, %d; want %q, %d (reference %q, %d)", c.s, p, n, c.prefix, c.n, rp, rn)
		}
	}
	for _, c := range []struct{ a, b string }{
		{"d007", "d7"}, // the same number: the string breaks the tie
		{"d7", "d08"},
		{"d9223372036854775807", "d9223372036854775808"},
		{"d2", "d12345678901234567890"}, // an overflowing suffix stays in the prefix
		{"", "0"},
		{"1", "10"},
		{"9", "d1"},
		{"e1", "é1"},
		{"é2", "é10"},
	} {
		if !lessNatural(c.a, c.b) || lessNatural(c.b, c.a) || !atoiLessNatural(c.a, c.b) {
			t.Errorf("want %q before %q", c.a, c.b)
		}
	}
}

// TestDataIDAllocs: resolving a name to its interned id allocates nothing.
func TestDataIDAllocs(t *testing.T) {
	ix := Figure2().Index()
	if a := testing.AllocsPerRun(100, func() {
		if _, ok := ix.DataID("d308"); !ok {
			t.Fatal("d308 not found")
		}
		if _, ok := ix.StepID("S10"); !ok {
			t.Fatal("S10 not found")
		}
		if _, ok := ix.DataID("d9999"); ok {
			t.Fatal("d9999 found")
		}
	}); a != 0 {
		t.Fatalf("DataID and StepID allocate %.1f times, want 0", a)
	}
}

func TestDataIDsAndFormat(t *testing.T) {
	if got := DataIDs(3, 5); !reflect.DeepEqual(got, []string{"d3", "d4", "d5"}) {
		t.Fatalf("DataIDs = %v", got)
	}
	if DataIDs(5, 3) != nil {
		t.Fatal("inverted range should be nil")
	}
	if got := FormatDataSet([]string{"d5", "d3", "d4", "d10", "x"}); got != "{d3..d5, d10, x}" {
		t.Fatalf("FormatDataSet = %s", got)
	}
	if got := FormatDataSet(nil); got != "{}" {
		t.Fatalf("FormatDataSet(nil) = %s", got)
	}
	if got := FormatDataSet([]string{"d1", "d2"}); got != "{d1, d2}" {
		t.Fatalf("two elements must not collapse: %s", got)
	}
}

func TestInputsOutputsOfNodes(t *testing.T) {
	r := Figure2()
	if got := r.OutputsOf("S1"); !reflect.DeepEqual(got, append([]string{"d201"}, DataIDs(308, 408)...)) {
		t.Fatalf("OutputsOf(S1) = %s", FormatDataSet(got))
	}
	if got := r.InputsOf("S10"); !reflect.DeepEqual(got, []string{"d413", "d414", "d446"}) {
		t.Fatalf("InputsOf(S10) = %v", got)
	}
	if got := r.DataOn("S4", "S5"); !reflect.DeepEqual(got, []string{"d411"}) {
		t.Fatalf("DataOn(S4,S5) = %v", got)
	}
	if got := r.DataOn("S4", "S9"); got != nil && len(got) != 0 {
		t.Fatalf("DataOn of absent edge = %v", got)
	}
	// d1..d100 (100) + d201 + d202..d206 (5) + d308..d408 (101) +
	// d409..d414 (6) + d415..d445 (31) + d446 + d447 = 246.
	if r.NumData() != 246 {
		t.Fatalf("NumData = %d", r.NumData())
	}
}

func mustT(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func mustBuild(t *testing.T, b *Builder) *Run {
	t.Helper()
	r, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return r
}
