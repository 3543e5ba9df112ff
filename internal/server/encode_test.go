package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/gen"
	"repro/internal/jsontok"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/warehouse"
	"repro/zoom/client"
)

// The encoder's two oracles. The documented response shapes, as structs: a
// response's bytes must equal json.Marshal of these plus a newline, and the
// handler tests decode answers into them. And the string-walking result
// encoder the server ran until answers arrived in integers: what the integer
// encoder writes for an Answer must equal what this one writes for its
// Result.

// executionDTO mirrors composite.Execution with JSON names.
type executionDTO struct {
	ID        string   `json:"id"`
	Composite string   `json:"composite"`
	Steps     []string `json:"steps"`
	Inputs    []string `json:"inputs,omitempty"`
	Outputs   []string `json:"outputs,omitempty"`
}

// edgeDTO mirrors provenance.Edge.
type edgeDTO struct {
	From string   `json:"from"`
	To   string   `json:"to"`
	Data []string `json:"data"`
}

// resultDTO is a provenance.Result shaped for JSON.
type resultDTO struct {
	Root       string            `json:"root"`
	External   bool              `json:"external,omitempty"`
	Metadata   map[string]string `json:"metadata,omitempty"`
	Executions []executionDTO    `json:"executions"`
	Data       []string          `json:"data"`
	Edges      []edgeDTO         `json:"edges"`
}

func toExecutionDTO(x *composite.Execution) executionDTO {
	return executionDTO{ID: x.ID, Composite: x.Composite, Steps: x.Steps,
		Inputs: x.Inputs, Outputs: x.Outputs}
}

func toResultDTO(res *provenance.Result) *resultDTO {
	if res == nil {
		return nil
	}
	out := &resultDTO{
		Root:       res.Root,
		External:   res.External,
		Metadata:   res.Metadata,
		Executions: make([]executionDTO, 0, len(res.Executions)),
		Data:       res.Data,
		Edges:      make([]edgeDTO, 0, len(res.Edges)),
	}
	for _, x := range res.Executions {
		out.Executions = append(out.Executions, toExecutionDTO(x))
	}
	for _, e := range res.Edges {
		out.Edges = append(out.Edges, edgeDTO{From: e.From, To: e.To, Data: e.Data})
	}
	return out
}

// oracleAppendResult appends one provenance result, read name by name, as the
// "result" object of the wire format.
func oracleAppendResult(dst []byte, res *provenance.Result) []byte {
	dst = append(dst, `{"root":`...)
	dst = jsontok.AppendString(dst, res.Root)
	if res.External {
		dst = append(dst, `,"external":true`...)
	}
	if len(res.Metadata) > 0 {
		raw, _ := json.Marshal(res.Metadata)
		dst = append(dst, `,"metadata":`...)
		dst = append(dst, raw...)
	}
	dst = append(dst, `,"executions":[`...)
	for i, x := range res.Executions {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendExecution(dst, x)
	}
	dst = append(dst, `],"data":`...)
	dst = appendStrings(dst, res.Data)
	dst = append(dst, `,"edges":[`...)
	for i := range res.Edges {
		if i > 0 {
			dst = append(dst, ',')
		}
		e := &res.Edges[i]
		dst = append(dst, `{"from":`...)
		dst = jsontok.AppendString(dst, e.From)
		dst = append(dst, `,"to":`...)
		dst = jsontok.AppendString(dst, e.To)
		dst = append(dst, `,"data":`...)
		dst = appendStrings(dst, e.Data)
		dst = append(dst, '}')
	}
	return append(dst, ']', '}')
}

// checkOracleResult holds the string-walking oracle to encoding/json on one
// result, which may be any shape strings can take (nil lists included).
func checkOracleResult(t testing.TB, res *provenance.Result) {
	t.Helper()
	got := append(oracleAppendResult(nil, res), '\n')
	if want := marshalLine(t, toResultDTO(res)); !bytes.Equal(got, want) {
		t.Fatalf("string oracle differs from encoding/json\n got: %s\nwant: %s", got, want)
	}
}

// queryResponse is the body of a POST /v1/query answer.
type queryResponse struct {
	Run       string        `json:"run"`
	Data      string        `json:"data"`
	Kind      string        `json:"kind"`
	Result    *resultDTO    `json:"result,omitempty"`
	Execution *executionDTO `json:"execution,omitempty"`
	Trace     *obs.SpanNode `json:"trace,omitempty"`
}

// batchResponse is the body of a POST /v1/batch answer.
type batchResponse struct {
	Run     string        `json:"run"`
	Count   int           `json:"count"`
	Results []*resultDTO  `json:"results"`
	Trace   *obs.SpanNode `json:"trace,omitempty"`
}

// oracleQuery is the query answer as encoding/json writes the documented
// struct, the way the server encoded it before it had its own encoder.
func oracleQuery(t testing.TB, a *queryAnswer) []byte {
	t.Helper()
	resp := queryResponse{Run: a.run, Data: a.data, Kind: a.kind,
		Result: toResultDTO(a.result.Result()), Trace: a.spans}
	if a.execution != nil {
		dto := toExecutionDTO(a.execution)
		resp.Execution = &dto
	}
	return marshalLine(t, resp)
}

func oracleBatch(t testing.TB, run string, results []*provenance.Answer, spans *obs.SpanNode) []byte {
	t.Helper()
	resp := batchResponse{Run: run, Count: len(results),
		Results: make([]*resultDTO, len(results)), Trace: spans}
	for i, a := range results {
		resp.Results[i] = toResultDTO(a.Result())
	}
	return marshalLine(t, resp)
}

func marshalLine(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// checkAnswer holds the integer encoder to the string-walking oracle on one
// answer.
func checkAnswer(t testing.TB, a *provenance.Answer) {
	t.Helper()
	got, want := AppendAnswer(nil, a), oracleAppendResult(nil, a.Result())
	if !bytes.Equal(got, want) {
		t.Fatalf("integer encoder differs from the string oracle\n got: %s\nwant: %s", got, want)
	}
}

// checkQuery holds one query answer to both oracles' bytes and to the typed
// client's decoder.
func checkQuery(t testing.TB, a *queryAnswer) {
	t.Helper()
	got, err := appendQueryResponse(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleQuery(t, a); !bytes.Equal(got, want) {
		t.Fatalf("query answer differs from encoding/json\n got: %s\nwant: %s", got, want)
	}
	if a.result != nil {
		checkAnswer(t, a.result)
	}
	var out client.QueryResponse
	if err := json.Unmarshal(got, &out); err != nil {
		t.Fatalf("client cannot decode %s: %v", got, err)
	}
	if (out.Result != nil) != (a.result != nil) || (out.Execution != nil) != (a.execution != nil) {
		t.Fatalf("client decoded result=%v execution=%v from %s", out.Result != nil, out.Execution != nil, got)
	}
}

func checkBatch(t testing.TB, run string, results []*provenance.Answer, spans *obs.SpanNode) {
	t.Helper()
	got, err := appendBatchResponse(nil, run, results, spans)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleBatch(t, run, results, spans); !bytes.Equal(got, want) {
		t.Fatalf("batch answer differs from encoding/json\n got: %s\nwant: %s", got, want)
	}
	var out client.BatchResponse
	if err := json.Unmarshal(got, &out); err != nil {
		t.Fatalf("client cannot decode %s: %v", got, err)
	}
	if out.Count != len(results) || len(out.Results) != len(results) {
		t.Fatalf("client decoded %d/%d results from %s", out.Count, len(out.Results), got)
	}
}

// nasty are strings that exercise every escaping rule of encoding/json: the
// two mandatory escapes, control bytes with and without short forms, the
// HTML-safe set, the JavaScript line separators, DEL, multi-byte runes,
// invalid UTF-8 (replaced by U+FFFD), and a 4 KB name.
var nasty = []string{
	"", "d1", `say "hi"`, `back\slash`, "tab\there", "nl\nnl", "\x00\x01\x1f", "\x7f",
	"<script>&amp;</script>", "line\u2028sep\u2029", "héllo wörld", "日本語", "\xff\xfe", "a\xc3", "\xed\xa0\x80",
	strings.Repeat("0123456789abcdef", 256),
}

// fig2Answers are real answers of every shape the engine produces over the
// paper's running example: a large deep answer under UAdmin and the same
// root under Joe's view (multi-step executions), an annotated external root
// (metadata, no executions, no edges), and a derivation.
func fig2Answers(t testing.TB) []*provenance.Answer {
	t.Helper()
	w := warehouse.New(0)
	sp := spec.Phylogenomics()
	if err := w.RegisterSpec(sp); err != nil {
		t.Fatal(err)
	}
	b := run.Figure2().Rebuild()
	if err := b.AnnotateInput("d1", map[string]string{"who": "<lab>", "when": "2007-12-01", "": " "}); err != nil {
		t.Fatal(err)
	}
	r, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.LoadRun(r); err != nil {
		t.Fatal(err)
	}
	joe, err := core.BuildRelevant(sp, spec.PhyloRelevantJoe())
	if err != nil {
		t.Fatal(err)
	}
	e := provenance.NewEngine(w)
	var out []*provenance.Answer
	for _, q := range []struct {
		v    *core.UserView
		data string
	}{{core.UAdmin(sp), "d447"}, {joe, "d447"}, {joe, "d1"}} {
		a, err := e.DeepAnswerCtx(context.Background(), "fig2", q.v, q.data)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	derived, err := e.DerivationAnswer("fig2", joe, "d308")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, derived)
}

func TestAppendResponseMatchesEncodingJSON(t *testing.T) {
	exec := func(id string, steps, in, out []string) *composite.Execution {
		return &composite.Execution{ID: id, Composite: "C" + id, Steps: steps, Inputs: in, Outputs: out}
	}
	answers := fig2Answers(t)
	if a := answers[2]; !a.External || len(a.Metadata) != 3 || len(a.Executions) != 0 || len(a.Edges) != 0 {
		t.Fatalf("fixture: d1 should be an annotated external root with an empty closure, got %+v", a)
	}
	spans := &obs.SpanNode{Name: "POST /v1/query", DurNs: 12, Tags: map[string]string{"k": "<v>"},
		Children: []obs.SpanNode{{Name: "query.lookup", StartNs: 1, DurNs: 2}}}

	for _, a := range answers {
		checkQuery(t, &queryAnswer{run: "r", data: a.Root, kind: "deep", result: a})
		checkQuery(t, &queryAnswer{run: "r", data: a.Root, kind: "deep", result: a, spans: spans})
		checkQuery(t, &queryAnswer{run: "r", data: a.Root, kind: "derived", result: a})
	}
	for _, s := range nasty {
		checkQuery(t, &queryAnswer{run: s, data: s, kind: s})
		checkQuery(t, &queryAnswer{run: s, data: s, kind: "immediate", execution: exec(s, []string{s}, []string{s}, nil)})
		checkQuery(t, &queryAnswer{run: s, data: s, kind: "immediate", execution: exec(s, nasty, nasty, nasty)})
	}
	// Immediate provenance of an external input: no execution at all.
	checkQuery(t, &queryAnswer{run: "r", data: "d1", kind: "immediate"})
	checkQuery(t, &queryAnswer{run: "r", data: "d1", kind: "immediate",
		execution: exec("M2@1", []string{"S2", "S3"}, nil, []string{}), spans: spans})

	checkBatch(t, "r", append([]*provenance.Answer{nil}, answers...), nil)
	checkBatch(t, "r", []*provenance.Answer{nil}, spans)
	checkBatch(t, nasty[8], nil, nil)

	// The string oracle itself, on shapes only strings can take.
	full := &provenance.Result{
		RunID: "ignored", Root: "d9",
		Executions: []*composite.Execution{
			exec("S1", []string{"S1"}, []string{"d1", "d2"}, []string{"d3"}),
			exec("M2@1", []string{"S2", "S3"}, nil, []string{}),
		},
		Data:  []string{"d1", "d2", "d3"},
		Edges: []provenance.Edge{{From: "INPUT", To: "S1", Data: []string{"d1", "d2"}}, {From: "S1", To: "M2@1", Data: []string{"d3"}}},
	}
	emptyMeta := &provenance.Result{Root: "d1", External: true, Metadata: map[string]string{}, Data: []string{}}
	bare := &provenance.Result{} // nil lists: data is null, executions and edges are []
	hostile := &provenance.Result{Root: nasty[2], Data: nasty}
	for _, s := range nasty {
		hostile.Executions = append(hostile.Executions, exec(s, nasty, nasty, nasty))
		hostile.Edges = append(hostile.Edges, provenance.Edge{From: s, To: s, Data: nasty})
	}
	for _, res := range []*provenance.Result{full, emptyMeta, bare, hostile} {
		checkOracleResult(t, res)
	}
}

// FuzzAppendResponse shapes the envelope of a response (echo, an immediate
// answer's execution, spans, a batch) out of arbitrary
// strings and holds the encoder to encoding/json on all of it; the result
// object inside is one of the running example's answers, and the result
// shaped from the same strings goes to the string oracle, so that stays held
// to encoding/json too. shape's bits choose which optional parts exist and
// which lists are nil, empty or populated. Names inside an answer are
// FuzzAnswerTokens' subject.
func FuzzAppendResponse(f *testing.F) {
	for i, s := range nasty[:15] {
		f.Add(s, nasty[(i+1)%15], strings.Join(nasty[:15], ","), uint16(i*37))
	}
	f.Add("fig2", "d447", "d1,d2,d3", uint16(0xffff))
	f.Add(nasty[15], nasty[15], nasty[15], uint16(0))
	answers := fig2Answers(f)
	f.Fuzz(func(t *testing.T, run, id, list string, shape uint16) {
		bit := func(n uint) bool { return shape>>n&1 == 1 }
		// pick returns nil, an empty list, or the split list.
		pick := func(n uint) []string {
			switch {
			case bit(n) && bit(n+1):
				return nil
			case bit(n):
				return []string{}
			}
			return strings.Split(list, ",")
		}
		x := &composite.Execution{ID: id, Composite: run, Steps: pick(0), Inputs: pick(2), Outputs: pick(4)}
		res := &provenance.Result{Root: id, External: bit(6), Data: pick(7)}
		if bit(9) {
			res.Metadata = map[string]string{id: run, run: list}
		}
		for _, d := range pick(10) {
			res.Executions = append(res.Executions, x)
			res.Edges = append(res.Edges, provenance.Edge{From: d, To: id, Data: pick(12)})
		}
		checkOracleResult(t, res)
		var a *provenance.Answer
		if !bit(8) {
			a = answers[int(shape>>6)%len(answers)]
		}
		var spans *obs.SpanNode
		if bit(15) {
			spans = &obs.SpanNode{Name: list, Tags: map[string]string{id: run}}
		}
		checkQuery(t, &queryAnswer{run: run, data: id, kind: list, result: a, spans: spans})
		checkQuery(t, &queryAnswer{run: run, data: id, kind: "immediate", execution: x})
		checkQuery(t, &queryAnswer{run: run, data: id, kind: "immediate"})
		checkBatch(t, run, []*provenance.Answer{a, nil, a}, spans)
	})
}

// largeSite is one cold-deep-shaped query: the last final output of a
// Class4-large run, to be asked under UAdmin.
func largeSite(t testing.TB) (e *provenance.Engine, runID string, admin *core.UserView, root string) {
	t.Helper()
	g := gen.NewGenerator(11)
	sp := g.Workflow(gen.Class4(), "large")
	r, _, err := g.Run(sp, gen.Large(), "large-run")
	if err != nil {
		t.Fatal(err)
	}
	w := warehouse.New(0)
	if err := w.RegisterSpec(sp); err != nil {
		t.Fatal(err)
	}
	if err := w.LoadRun(r); err != nil {
		t.Fatal(err)
	}
	finals := r.FinalOutputs()
	return provenance.NewEngine(w), r.ID(), core.UAdmin(sp), finals[len(finals)-1]
}

// largeAnswer computes largeSite's answer.
func largeAnswer(t testing.TB) *provenance.Answer {
	t.Helper()
	e, runID, admin, root := largeSite(t)
	a, err := e.DeepAnswerCtx(context.Background(), runID, admin, root)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestEncodeLargeAnswerAllocs is the worker half of the wire path's alloc
// budget: once the buffer has grown to the answer's size, encoding a large
// answer allocates nothing — no DTO copies, no reflection, no indenter.
func TestEncodeLargeAnswerAllocs(t *testing.T) {
	res := largeAnswer(t)
	a := &queryAnswer{run: res.RunID, data: res.Root, kind: "deep", result: res}
	checkQuery(t, a)
	buf, err := appendQueryResponse(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) < 50<<10 {
		t.Fatalf("answer is only %d bytes; the fixture no longer stands for a large answer", len(buf))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if buf, err = appendQueryResponse(buf[:0], a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("encoding a %d-byte answer into a warm buffer: %v allocs/op, want 0", len(buf), allocs)
	}
}

// TestEncodeFailureIsAWellFormed500 checks encode-then-commit on both
// writers: a value or an answer that cannot be encoded costs the client a
// JSON 500, never a 200 followed by half a document.
func TestEncodeFailureIsAWellFormed500(t *testing.T) {
	check := func(name string, rec *httptest.ResponseRecorder) {
		t.Helper()
		var eb edge.ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatalf("%s: body %q is not JSON: %v", name, rec.Body.String(), err)
		}
		if rec.Code != http.StatusInternalServerError || !strings.Contains(eb.Error, "encode response") {
			t.Fatalf("%s: status %d body %+v", name, rec.Code, eb)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("%s: Content-Length %q for %d bytes", name, cl, rec.Body.Len())
		}
	}
	rec := httptest.NewRecorder()
	edge.WriteJSON(rec, http.StatusOK, map[string]any{"unencodable": make(chan int)})
	check("edge.WriteJSON", rec)

	rec = httptest.NewRecorder()
	writeAnswer(rec, func(dst []byte) ([]byte, error) {
		return append(dst, `{"run":"half a docu`...), errors.New("span tree would not marshal")
	})
	check("writeAnswer", rec)
}

// BenchmarkEncodeLargeAnswer is the "indentation, not reflection" row of
// EXPERIMENTS.md ("Answer path"): one large answer through the indenting
// encoder the server used to run, through the same reflective encoder
// without SetIndent, and through the append encoder.
func BenchmarkEncodeLargeAnswer(b *testing.B) {
	ans := largeAnswer(b)
	res := ans.Result()
	a := &queryAnswer{run: res.RunID, data: res.Root, kind: "deep", result: ans}
	reflective := func(indent bool) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				resp := queryResponse{Run: a.run, Data: a.data, Kind: a.kind, Result: toResultDTO(res)}
				enc := json.NewEncoder(&buf)
				if indent {
					enc.SetIndent("", "  ")
				}
				if err := enc.Encode(resp); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(buf.Len()))
		}
	}
	b.Run("indent", reflective(true))
	b.Run("reflect", reflective(false))
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = appendQueryResponse(buf[:0], a)
		}
		b.SetBytes(int64(len(buf)))
	})
}
