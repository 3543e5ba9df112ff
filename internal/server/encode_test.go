package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/gen"
	"repro/internal/jsontok"
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

// appendExecution appends one execution from its strings: what the server
// wrote for an immediate answer before it wrote it from the mapping's
// ordinal (appendExecutionAt).
func appendExecution(dst []byte, x *composite.Execution) []byte {
	dst = append(dst, `{"id":`...)
	dst = jsontok.AppendString(dst, x.ID)
	dst = append(dst, `,"composite":`...)
	dst = jsontok.AppendString(dst, x.Composite)
	dst = append(dst, `,"steps":`...)
	dst = appendStrings(dst, x.Steps)
	if len(x.Inputs) > 0 {
		dst = append(dst, `,"inputs":`...)
		dst = appendStrings(dst, x.Inputs)
	}
	if len(x.Outputs) > 0 {
		dst = append(dst, `,"outputs":`...)
		dst = appendStrings(dst, x.Outputs)
	}
	return append(dst, '}')
}

// appendStrings appends a JSON string array; a nil slice is null, as in
// encoding/json.
func appendStrings(dst []byte, xs []string) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsontok.AppendString(dst, s)
	}
	return append(dst, ']')
}

// checkOracleExecution holds the string-walking execution encoder to
// encoding/json on one execution of any shape strings can take.
func checkOracleExecution(t testing.TB, x *composite.Execution) {
	t.Helper()
	got := append(appendExecution(nil, x), '\n')
	if want := marshalLine(t, toExecutionDTO(x)); !bytes.Equal(got, want) {
		t.Fatalf("string execution oracle differs from encoding/json\n got: %s\nwant: %s", got, want)
	}
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
}

// batchResponse is the body of a POST /v1/batch answer.
type batchResponse struct {
	Run     string       `json:"run"`
	Count   int          `json:"count"`
	Results []*resultDTO `json:"results"`
}

// oracleQuery is the query answer as encoding/json writes the documented
// struct, the way the server encoded it before it had its own encoder.
func oracleQuery(t testing.TB, a *queryAnswer) []byte {
	t.Helper()
	resp := queryResponse{Run: a.run, Data: a.data, Kind: a.kind, Result: toResultDTO(a.result.Result())}
	if a.hasExecution() {
		dto := toExecutionDTO(a.px.Execution(a.ord))
		resp.Execution = &dto
	}
	return marshalLine(t, resp)
}

// hasExecution reports whether an immediate answer names an execution.
func (a *queryAnswer) hasExecution() bool { return a.px != nil && a.ord >= 0 }

func oracleBatch(t testing.TB, run string, results []*provenance.Answer) []byte {
	t.Helper()
	resp := batchResponse{Run: run, Count: len(results), Results: make([]*resultDTO, len(results))}
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
	checkBound(t, answerBound(a), got, a)
}

// checkBound holds the bound an encoder grows its buffer by to the bytes it
// then wrote. An external root's metadata is marshalled in place, outside
// every bound (such an answer may grow the buffer once more), so its bytes
// are taken off first.
func checkBound(t testing.TB, bound int, got []byte, answers ...*provenance.Answer) {
	t.Helper()
	n := len(got)
	for _, a := range answers {
		if a != nil && len(a.Metadata) > 0 {
			raw, _ := json.Marshal(a.Metadata)
			n -= len(`,"metadata":`) + len(raw)
		}
	}
	if bound < n {
		t.Fatalf("bound %d is below the %d bytes written (metadata aside)", bound, n)
	}
}

// checkQuery holds one query answer to both oracles' bytes and to the typed
// client's decoder.
func checkQuery(t testing.TB, a *queryAnswer) {
	t.Helper()
	got := appendQueryResponse(nil, a)
	if want := oracleQuery(t, a); !bytes.Equal(got, want) {
		t.Fatalf("query answer differs from encoding/json\n got: %s\nwant: %s", got, want)
	}
	checkBound(t, queryBound(a), got, a.result)
	if a.result != nil {
		checkAnswer(t, a.result)
	}
	var out client.QueryResponse
	if err := json.Unmarshal(got, &out); err != nil {
		t.Fatalf("client cannot decode %s: %v", got, err)
	}
	if a.hasExecution() {
		if got, want := appendExecutionAt(nil, a.px, a.px.Index().Tokens(), a.ord), appendExecution(nil, a.px.Execution(a.ord)); !bytes.Equal(got, want) {
			t.Fatalf("execution from tokens differs from the string oracle\n got: %s\nwant: %s", got, want)
		}
	}
	if (out.Result != nil) != (a.result != nil) || (out.Execution != nil) != a.hasExecution() {
		t.Fatalf("client decoded result=%v execution=%v from %s", out.Result != nil, out.Execution != nil, got)
	}
}

func checkBatch(t testing.TB, run string, results []*provenance.Answer) {
	t.Helper()
	got := appendBatchResponse(nil, run, results)
	if want := oracleBatch(t, run, results); !bytes.Equal(got, want) {
		t.Fatalf("batch answer differs from encoding/json\n got: %s\nwant: %s", got, want)
	}
	checkBound(t, batchBound(run, results), got, results...)
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
// (metadata, no executions, no edges), and a derivation. Beside them are
// its immediate answers: d413's producer under UAdmin (one step) and under
// Joe's and Mary's views (composite executions), and the external input d1
// (no execution).
func fig2Answers(t testing.TB) ([]*provenance.Answer, []queryAnswer) {
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
	mary, err := core.BuildRelevant(sp, spec.PhyloRelevantMary())
	if err != nil {
		t.Fatal(err)
	}
	var immediate []queryAnswer
	for _, q := range []struct {
		v    *core.UserView
		data string
	}{{core.UAdmin(sp), "d413"}, {joe, "d413"}, {mary, "d413"}, {joe, "d1"}} {
		px, ord, err := e.ImmediateAnswerCtx(context.Background(), "fig2", q.v, q.data)
		if err != nil {
			t.Fatal(err)
		}
		immediate = append(immediate, queryAnswer{run: "fig2", data: q.data, kind: "immediate", px: px, ord: ord})
	}
	return append(out, derived), immediate
}

func TestAppendResponseMatchesEncodingJSON(t *testing.T) {
	exec := func(id string, steps, in, out []string) *composite.Execution {
		return &composite.Execution{ID: id, Composite: "C" + id, Steps: steps, Inputs: in, Outputs: out}
	}
	answers, immediate := fig2Answers(t)
	if a := answers[2]; !a.External || len(a.Metadata) != 3 || len(a.Executions) != 0 || len(a.Edges) != 0 {
		t.Fatalf("fixture: d1 should be an annotated external root with an empty closure, got %+v", a)
	}
	if immediate[1].px.Execution(immediate[1].ord).Composite == immediate[0].px.Execution(immediate[0].ord).Composite ||
		immediate[3].ord >= 0 {
		t.Fatal("fixture: want a composite execution under Joe's view and an external d1")
	}
	for _, a := range answers {
		checkQuery(t, &queryAnswer{run: "r", data: a.Root, kind: "deep", result: a})
		checkQuery(t, &queryAnswer{run: "r", data: a.Root, kind: "derived", result: a})
	}
	for _, im := range immediate {
		checkQuery(t, &im)
	}
	for i, s := range nasty {
		checkQuery(t, &queryAnswer{run: s, data: s, kind: s})
		im := immediate[i%len(immediate)]
		checkQuery(t, &queryAnswer{run: s, data: s, kind: "immediate", px: im.px, ord: im.ord})
		checkOracleExecution(t, exec(s, []string{s}, []string{s}, nil))
		checkOracleExecution(t, exec(s, nasty, nasty, nasty))
	}
	// Immediate provenance of an external input: no execution at all.
	checkQuery(t, &queryAnswer{run: "r", data: "d1", kind: "immediate"})
	checkOracleExecution(t, exec("M2@1", []string{"S2", "S3"}, nil, []string{}))

	checkBatch(t, "r", append([]*provenance.Answer{nil}, answers...))
	checkBatch(t, "r", []*provenance.Answer{nil})
	checkBatch(t, nasty[8], nil)

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

// FuzzAppendResponse shapes the envelope of a response (echo, a batch) out
// of arbitrary strings and holds the encoder to encoding/json on all of it;
// the result object or immediate execution inside is one of the running
// example's answers, and the result and execution shaped from the same
// strings go to the string oracles, so those stay held to encoding/json too. shape's bits choose which optional parts exist and
// which lists are nil, empty or populated. Names inside an answer are
// FuzzAnswerTokens' subject.
func FuzzAppendResponse(f *testing.F) {
	for i, s := range nasty[:15] {
		f.Add(s, nasty[(i+1)%15], strings.Join(nasty[:15], ","), uint16(i*37))
	}
	f.Add("fig2", "d447", "d1,d2,d3", uint16(0xffff))
	f.Add(nasty[15], nasty[15], nasty[15], uint16(0))
	answers, immediate := fig2Answers(f)
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
		checkOracleExecution(t, x)
		var a *provenance.Answer
		if !bit(8) {
			a = answers[int(shape>>6)%len(answers)]
		}
		im := immediate[int(shape>>6)%len(immediate)]
		checkQuery(t, &queryAnswer{run: run, data: id, kind: list, result: a})
		checkQuery(t, &queryAnswer{run: run, data: id, kind: "immediate", px: im.px, ord: im.ord})
		checkQuery(t, &queryAnswer{run: run, data: id, kind: "immediate"})
		checkBatch(t, run, []*provenance.Answer{a, nil, a})
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
// answer allocates nothing — no DTO copies, no reflection, no indenter. Into
// an empty buffer, as a fresh process's first answer is written, it
// allocates once: the buffer, at the size of its bound, which stays close
// enough to the answer that a pooled buffer does not balloon. (An external
// root with metadata may allocate, and grow, once more.) Under the race
// detector only the bound is checked.
func TestEncodeLargeAnswerAllocs(t *testing.T) {
	res := largeAnswer(t)
	a := &queryAnswer{run: res.RunID, data: res.Root, kind: "deep", result: res}
	checkQuery(t, a)
	buf := appendQueryResponse(nil, a)
	if len(buf) < 50<<10 {
		t.Fatalf("answer is only %d bytes; the fixture no longer stands for a large answer", len(buf))
	}
	if bound := queryBound(a); bound > len(buf)*3/2 {
		t.Fatalf("bound %d for a %d-byte answer: more than 1.5x", bound, len(buf))
	}
	if raceEnabled {
		t.Skip("the race detector allocates on its own account, so the allocation counts mean nothing")
	}
	allocs := testing.AllocsPerRun(20, func() {
		buf = appendQueryResponse(buf[:0], a)
	})
	if allocs != 0 {
		t.Fatalf("encoding a %d-byte answer into a warm buffer: %v allocs/op, want 0", len(buf), allocs)
	}
	allocs = testing.AllocsPerRun(20, func() {
		buf = appendQueryResponse(nil, a)
	})
	if allocs != 1 {
		t.Fatalf("encoding a %d-byte answer into a nil buffer: %v allocs/op, want 1", len(buf), allocs)
	}
	t.Logf("%d-byte answer, bound %d (%.2fx)", len(buf), queryBound(a), float64(queryBound(a))/float64(len(buf)))
}

// TestEncodeLongNameAllocs: one long name inflates the bound of every answer
// on its run, since the bound counts every token at the longest one's
// length. A chain of 200 steps beside one step that reads a 64 KB data
// object bounds the chain's ~20 KB answer, which leaves that name out, at
// about 50 MB.
// Growing by such a bound would allocate it on every query, the buffer too
// large to go back to the pool; the encoder appends instead, and its
// regrowths allocate a small multiple of what it writes (about 4x).
func TestEncodeLongNameAllocs(t *testing.T) {
	const n = 200
	sp := spec.New("long")
	b := run.NewBuilder("long-run", "long")
	prev, prevStep := spec.Input, spec.Input
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		m, s := "M"+strconv.Itoa(i), "S"+strconv.Itoa(i)
		must(sp.AddModule(spec.Module{Name: m}))
		must(sp.AddEdge(prev, m))
		must(b.AddStep(s, m))
		must(b.AddFlow(prevStep, s, []string{"d" + strconv.Itoa(i)}))
		prev, prevStep = m, s
	}
	must(sp.AddEdge(prev, spec.Output))
	must(b.AddFlow(prevStep, spec.Output, []string{"d" + strconv.Itoa(n)}))
	must(sp.AddModule(spec.Module{Name: "T"}))
	must(sp.AddEdge(spec.Input, "T"))
	must(sp.AddEdge("T", spec.Output))
	must(b.AddStep("T", "T"))
	must(b.AddFlow(spec.Input, "T", []string{strings.Repeat("x", 64<<10)}))
	must(b.AddFlow("T", spec.Output, []string{"t"}))
	r, err := b.Build()
	must(err)
	w := warehouse.New(0)
	must(w.RegisterSpec(sp))
	must(w.LoadRun(r))
	res, err := provenance.NewEngine(w).DeepAnswerCtx(context.Background(), r.ID(), core.UAdmin(sp), "d"+strconv.Itoa(n))
	must(err)
	a := &queryAnswer{run: res.RunID, data: res.Root, kind: "deep", result: res}
	checkQuery(t, a)
	buf := appendQueryResponse(nil, a)
	if bound := queryBound(a); bound < 100*len(buf) {
		t.Fatalf("bound %d for a %d-byte answer: the long name no longer inflates it", bound, len(buf))
	}
	var before, after runtime.MemStats
	const reps = 10
	runtime.ReadMemStats(&before)
	for range reps {
		buf = appendQueryResponse(nil, a)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reps; per > 6*uint64(len(buf)) {
		t.Fatalf("encoding a %d-byte answer into a nil buffer allocated %d bytes, more than 6x", len(buf), per)
	} else {
		t.Logf("%d-byte answer, bound %d, %d bytes allocated into a nil buffer", len(buf), queryBound(a), per)
	}
}

// TestEncodeFailureIsAWellFormed500 checks encode-then-commit: a value that
// cannot be encoded costs the client a JSON 500, never a 200 followed by
// half a document. (The answer encoder has no failure to report.)
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
			buf = appendQueryResponse(buf[:0], a)
		}
		b.SetBytes(int64(len(buf)))
	})
}
