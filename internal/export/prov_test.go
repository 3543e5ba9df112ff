package export

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/provenance"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/warehouse"
)

func fixtureResult(t *testing.T, relevant []string, data string) *provenance.Result {
	t.Helper()
	w := warehouse.New(0)
	s := spec.Phylogenomics()
	if err := w.RegisterSpec(s); err != nil {
		t.Fatal(err)
	}
	b := run.Figure2().Rebuild()
	if err := b.AnnotateInput("d1", map[string]string{"who": "joe"}); err != nil {
		t.Fatal(err)
	}
	r, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.LoadRun(r); err != nil {
		t.Fatal(err)
	}
	v, err := core.BuildRelevant(s, relevant)
	if err != nil {
		t.Fatal(err)
	}
	res, err := provenance.NewEngine(w).DeepProvenance("fig2", v, data)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPROVJSONJoe(t *testing.T) {
	res := fixtureResult(t, spec.PhyloRelevantJoe(), "d447")
	data, err := PROVJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	entities, activities, usages, generations, err := Validate(data)
	if err != nil {
		t.Fatal(err)
	}
	if entities != res.NumData() {
		t.Fatalf("entities = %d, want %d", entities, res.NumData())
	}
	if activities != res.NumSteps() {
		t.Fatalf("activities = %d, want %d", activities, res.NumSteps())
	}
	if usages == 0 || generations == 0 {
		t.Fatalf("no relations exported: %d usages, %d generations", usages, generations)
	}
	text := string(data)
	// The root is flagged; hidden loop data never leaks.
	if !strings.Contains(text, `"zoom:queryRoot": true`) {
		t.Error("query root not flagged")
	}
	for _, hidden := range []string{"d409", "d410", "d411", "d412"} {
		if strings.Contains(text, hidden+`"`) {
			t.Errorf("hidden data %s leaked into export", hidden)
		}
	}
	if !strings.Contains(text, "zoom:exec/M3@1") {
		t.Error("composite execution missing")
	}
}

func TestPROVJSONExternalRootMetadata(t *testing.T) {
	res := fixtureResult(t, spec.PhyloRelevantJoe(), "d1")
	data, err := PROVJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.Contains(text, `"zoom:external": true`) {
		t.Error("external flag missing")
	}
	if !strings.Contains(text, `"who": "joe"`) {
		t.Error("input metadata missing")
	}
	if _, _, usages, _, err := Validate(data); err != nil || usages != 0 {
		t.Fatalf("external root should have no usages: %d, %v", usages, err)
	}
}

func TestPROVJSONDeterministic(t *testing.T) {
	res := fixtureResult(t, spec.PhyloRelevantMary(), "d413")
	a, err := PROVJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PROVJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("export is not deterministic")
	}
}

func TestValidateRejectsBrokenDocs(t *testing.T) {
	if _, _, _, _, err := Validate([]byte("{")); err == nil {
		t.Fatal("garbage accepted")
	}
	broken := `{"prefix":{},"entity":{},"activity":{},
		"used":{"zoom:u1":{"prov:activity":"zoom:exec/x","prov:entity":"zoom:data/y"}}}`
	if _, _, _, _, err := Validate([]byte(broken)); err == nil {
		t.Fatal("dangling usage accepted")
	}
	broken2 := `{"prefix":{},"entity":{},"activity":{},
		"wasGeneratedBy":{"zoom:g1":{"prov:activity":"zoom:exec/x","prov:entity":"zoom:data/y"}}}`
	if _, _, _, _, err := Validate([]byte(broken2)); err == nil {
		t.Fatal("dangling generation accepted")
	}
}

func TestSpecGraphML(t *testing.T) {
	out := SpecGraphML(spec.Phylogenomics())
	for _, want := range []string{
		`<graph id="phylogenomics"`,
		`<node id="M3"><data key="kind">scientific</data></node>`,
		`<node id="INPUT"><data key="kind">boundary</data></node>`,
		`<edge source="M5" target="M3"/>`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("GraphML missing %q", want)
		}
	}
	if !strings.HasSuffix(out, "</graphml>\n") {
		t.Error("unterminated document")
	}
}
