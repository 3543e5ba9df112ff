package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"unicode/utf8"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/provenance"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/warehouse"
)

// TestAnswerEncoderMatchesOracle holds the integer encoder to both oracles
// on generated runs: every workflow class, under UAdmin, the biologist's
// view, the black box and a random 30% relevant list; every 7th data object
// asked deep and derived, the same objects in batches of 8, and two external
// roots (an empty closure), one of them annotated.
func TestAnswerEncoderMatchesOracle(t *testing.T) {
	ctx := context.Background()
	g := gen.NewGenerator(7)
	for ci, class := range gen.Classes() {
		sp := g.Workflow(class, fmt.Sprintf("enc-%d", ci))
		r, _, err := g.Run(sp, gen.Small(), fmt.Sprintf("enc-%d-r", ci))
		if err != nil {
			t.Fatal(err)
		}
		all := r.AllData()
		var external []string
		for _, d := range all {
			if r.IsExternal(d) {
				external = append(external, d)
			}
		}
		if len(external) < 2 {
			t.Fatalf("%s: %d external inputs, want an annotated and a bare one", r.ID(), len(external))
		}
		b := r.Rebuild()
		if err := b.AnnotateInput(external[0], map[string]string{"who": "<lab>", "when": "2007-12-01"}); err != nil {
			t.Fatal(err)
		}
		if r, err = b.Build(); err != nil {
			t.Fatal(err)
		}
		w := warehouse.New(0)
		if err := w.RegisterSpec(sp); err != nil {
			t.Fatal(err)
		}
		if err := w.LoadRun(r); err != nil {
			t.Fatal(err)
		}
		e := provenance.NewEngine(w)
		views := map[string]*core.UserView{"admin": core.UAdmin(sp)}
		for name, build := range map[string]func() (*core.UserView, error){
			"ubio":     func() (*core.UserView, error) { return core.BuildRelevant(sp, gen.UBioRelevant(sp)) },
			"blackbox": func() (*core.UserView, error) { return core.UBlackBox(sp) },
			"random30": func() (*core.UserView, error) { return core.BuildRelevant(sp, g.RandomRelevant(sp, 30)) },
		} {
			v, err := build()
			if err != nil {
				t.Fatalf("%s: view %s: %v", r.ID(), name, err)
			}
			views[name] = v
		}
		for name, v := range views {
			deep := func(d string) *provenance.Answer {
				a, qt, err := e.DeepAnswerTracedCtx(ctx, r.ID(), v, d)
				if err != nil {
					t.Fatalf("%s/%s: deep %s: %v", r.ID(), name, d, err)
				}
				checkQuery(t, &queryAnswer{traceID: "t", run: r.ID(), data: d, kind: "deep", deep: qt, result: a})
				return a
			}
			var batch []string
			for i := 0; i < len(all); i += 7 {
				d := all[i]
				deep(d)
				a, err := e.DerivationAnswer(r.ID(), v, d)
				if err != nil {
					t.Fatalf("%s/%s: derived %s: %v", r.ID(), name, d, err)
				}
				checkQuery(t, &queryAnswer{traceID: "t", run: r.ID(), data: d, kind: "derived", result: a})
				if batch = append(batch, d); len(batch) == 8 {
					answers, err := e.DeepAnswerBatch(ctx, r.ID(), v, batch, 2)
					if err != nil {
						t.Fatalf("%s/%s: batch %v: %v", r.ID(), name, batch, err)
					}
					checkBatch(t, "t", r.ID(), answers, nil)
					batch = batch[:0]
				}
			}
			for i, d := range external[:2] {
				a := deep(d)
				if !a.External || (len(a.Metadata) > 0) != (i == 0) || len(a.Executions) != 0 || len(a.Edges) != 0 {
					t.Fatalf("%s/%s: external root %s: %+v", r.ID(), name, d, a)
				}
			}
		}
	}
}

// tokenSite is FuzzAnswerTokens' fixture: a three-step chain whose every
// name is one of the given strings plus a digit, loaded into a fresh engine,
// with a view that merges the first two modules (one multi-step execution,
// so a <composite>@1 id, beside a single-step one) and an annotated input.
// ok is false when the strings are not names the system accepts.
func tokenSite(step, module, comp, data string) (e *provenance.Engine, view *core.UserView, ok bool) {
	sp := spec.New("fz")
	for _, m := range []string{module + "1", module + "2", module + "3"} {
		if sp.AddModule(spec.Module{Name: m}) != nil {
			return nil, nil, false
		}
	}
	chain := []string{spec.Input, module + "1", module + "2", module + "3", spec.Output}
	b := run.NewBuilder("fz", "fz")
	nodes := []string{spec.Input, step + "1", step + "2", step + "3", spec.Output}
	for i := 1; i <= 3; i++ {
		if b.AddStep(nodes[i], chain[i]) != nil {
			return nil, nil, false
		}
	}
	for i := 0; i < 4; i++ {
		if sp.AddEdge(chain[i], chain[i+1]) != nil ||
			b.AddFlow(nodes[i], nodes[i+1], []string{data + string(rune('0'+i))}) != nil {
			return nil, nil, false
		}
	}
	if b.AnnotateInput(data+"0", map[string]string{comp: module}) != nil {
		return nil, nil, false
	}
	r, err := b.Build()
	if err != nil {
		return nil, nil, false
	}
	view, err = core.NewUserView(sp, map[string][]string{
		comp + "a": {module + "1", module + "2"}, comp + "b": {module + "3"}})
	if err != nil {
		return nil, nil, false
	}
	w := warehouse.New(0)
	if w.RegisterSpec(sp) != nil || w.LoadRun(r) != nil || w.RegisterView("v", view) != nil {
		return nil, nil, false
	}
	return provenance.NewEngine(w), view, true
}

// FuzzAnswerTokens: names reach an answer's bytes through the token tables,
// never through the encoder, so this is where escaping is held to
// encoding/json. Every data object of the fixture is asked deep and derived
// and all four in one batch, under UAdmin and under the merging view; the
// bytes must be json.Marshal of the documented structs. Requests go through
// the handler when JSON can carry the data name (valid UTF-8) and straight
// to the engine and the encoder when it cannot.
func FuzzAnswerTokens(f *testing.F) {
	for i, s := range nasty {
		n := len(nasty)
		f.Add(s, nasty[(i+3)%n], nasty[(i+5)%n], nasty[(i+7)%n])
	}
	f.Add("S", "M", "C", "d")
	f.Fuzz(func(t *testing.T, step, module, comp, data string) {
		e, view, ok := tokenSite(step, module, comp, data)
		if !ok {
			t.Skip()
		}
		s, err := New(nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		s.SetEngine(e)
		h := s.Handler()
		roots := []string{data + "0", data + "1", data + "2", data + "3"}
		for viewName, v := range map[string]*core.UserView{"": core.UAdmin(view.Spec()), "v": view} {
			want := make([]*provenance.Result, len(roots))
			for i, d := range roots {
				if want[i], err = e.DeepProvenance("fz", v, d); err != nil {
					t.Fatal(err)
				}
				derived, err := e.DeepDerivation("fz", v, d)
				if err != nil {
					t.Fatal(err)
				}
				if utf8.ValidString(d) {
					checkServedQuery(t, h, queryRequest{Run: "fz", Data: d, View: viewName}, want[i])
					checkServedQuery(t, h, queryRequest{Run: "fz", Data: d, View: viewName, Kind: "derived"}, derived)
					continue
				}
				a, qt, err := e.DeepAnswerTracedCtx(context.Background(), "fz", v, d)
				if err != nil {
					t.Fatal(err)
				}
				checkQuery(t, &queryAnswer{traceID: "t", run: "fz", data: d, kind: "deep", deep: qt, result: a})
				if a, err = e.DerivationAnswer("fz", v, d); err != nil {
					t.Fatal(err)
				}
				checkQuery(t, &queryAnswer{traceID: "t", run: "fz", data: d, kind: "derived", result: a})
			}
			if utf8.ValidString(data) {
				checkServedBatch(t, h, batchRequest{Run: "fz", Data: roots, View: viewName}, want)
				continue
			}
			answers, err := e.DeepAnswerBatch(context.Background(), "fz", v, roots, 2)
			if err != nil {
				t.Fatal(err)
			}
			checkBatch(t, "t", "fz", answers, nil)
		}
	})
}

// checkServedQuery posts one query and holds the served body to json.Marshal
// of the documented struct: the body decoded, its result replaced by want,
// must marshal back to the same bytes.
func checkServedQuery(t *testing.T, h http.Handler, req queryRequest, want *provenance.Result) {
	t.Helper()
	var got queryResponse
	rec := doJSON(t, h, "POST", "/v1/query", req, &got)
	if rec.Code != http.StatusOK {
		t.Fatalf("%+v: status %d: %s", req, rec.Code, rec.Body)
	}
	got.Result = toResultDTO(want)
	if wantBody := marshalLine(t, got); !bytes.Equal(rec.Body.Bytes(), wantBody) {
		t.Fatalf("%+v: served body differs from encoding/json\n got: %s\nwant: %s", req, rec.Body, wantBody)
	}
}

// checkServedBatch is checkServedQuery for /v1/batch.
func checkServedBatch(t *testing.T, h http.Handler, req batchRequest, want []*provenance.Result) {
	t.Helper()
	var got batchResponse
	rec := doJSON(t, h, "POST", "/v1/batch", req, &got)
	if rec.Code != http.StatusOK {
		t.Fatalf("%+v: status %d: %s", req, rec.Code, rec.Body)
	}
	got.Results = make([]*resultDTO, len(want))
	for i, res := range want {
		got.Results[i] = toResultDTO(res)
	}
	if wantBody := marshalLine(t, got); !bytes.Equal(rec.Body.Bytes(), wantBody) {
		t.Fatalf("%+v: served body differs from encoding/json\n got: %s\nwant: %s", req, rec.Body, wantBody)
	}
}

// TestConcurrentFirstEncodeAndExecution races the two lazy builds behind a
// fresh mapping — the run's token tables and the mapping's Execution values —
// from 32 goroutines released together: half encode the deep answer, half
// ask for the root's producing execution and spell it out. Every goroutine
// of a kind must write the same bytes, and the two spellings of an execution
// (from its strings, from tokens at its ordinal) must agree.
func TestConcurrentFirstEncodeAndExecution(t *testing.T) {
	e, runID, admin, root := largeSite(t)
	const n = 32
	bodies := make([][]byte, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if i%2 == 0 {
				a, _, err := e.DeepAnswerTracedCtx(context.Background(), runID, admin, root)
				if err != nil {
					t.Error(err)
					return
				}
				bodies[i] = AppendAnswer(nil, a)
				return
			}
			x, err := e.ImmediateProvenance(runID, admin, root)
			if err != nil {
				t.Error(err)
				return
			}
			bodies[i] = appendExecution(nil, x)
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	a, _, err := e.DeepAnswerTracedCtx(context.Background(), runID, admin, root)
	if err != nil {
		t.Fatal(err)
	}
	x, err := e.ImmediateProvenance(runID, admin, root)
	if err != nil {
		t.Fatal(err)
	}
	ord, ok := a.Projector.Ordinal(x.ID)
	if !ok {
		t.Fatalf("execution %q has no ordinal", x.ID)
	}
	want := [2][]byte{
		oracleAppendResult(nil, a.Result()),
		appendExecutionAt(nil, a.Projector, a.Projector.Index().Tokens(), ord),
	}
	for i, body := range bodies {
		if !bytes.Equal(body, want[i%2]) {
			t.Fatalf("goroutine %d wrote\n%s\nwant\n%s", i, body, want[i%2])
		}
	}
}

// TestServingPathBuildsNoExecutions: deep, derived and batch answers are
// written from integers and tokens, so a server that is asked nothing else
// never spells a mapping's Execution values out. An immediate query does,
// once per mapping.
func TestServingPathBuildsNoExecutions(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	before := composite.ExecutionBuilds()
	selectors := []queryRequest{{}, {View: "joe"}, {Relevant: []string{"M2", "M3", "M7"}}}
	for _, sel := range selectors {
		for _, kind := range []string{"deep", "derived"} {
			req := queryRequest{Run: "fig2", Data: "d413", Kind: kind, View: sel.View, Relevant: sel.Relevant}
			if rec := doJSON(t, h, "POST", "/v1/query", req, nil); rec.Code != http.StatusOK {
				t.Fatalf("%+v: status %d: %s", req, rec.Code, rec.Body)
			}
		}
		req := batchRequest{Run: "fig2", Data: []string{"d447", "d413", "d1"}, View: sel.View, Relevant: sel.Relevant}
		if rec := doJSON(t, h, "POST", "/v1/batch", req, nil); rec.Code != http.StatusOK {
			t.Fatalf("%+v: status %d: %s", req, rec.Code, rec.Body)
		}
	}
	if n := composite.ExecutionBuilds() - before; n != 0 {
		t.Fatalf("deep, derived and batch queries built the Execution values of %d mappings", n)
	}
	for i := 0; i < 2; i++ {
		req := queryRequest{Run: "fig2", Data: "d413", Kind: "immediate", View: "joe"}
		if rec := doJSON(t, h, "POST", "/v1/query", req, nil); rec.Code != http.StatusOK {
			t.Fatalf("%+v: status %d: %s", req, rec.Code, rec.Body)
		}
	}
	if n := composite.ExecutionBuilds() - before; n != 1 {
		t.Fatalf("two immediate queries under one view built Execution values %d times, want 1", n)
	}
}

// TestAnswerPathAllocs is the worker's allocation budget from a cached
// closure to the bytes of a large answer: the Answer and its stage timings,
// its id lists, its edge rows and the projection's two bitsets, nothing per
// name. The lists are pointer-free
// by type, so names cannot creep back into the projection unnoticed.
func TestAnswerPathAllocs(t *testing.T) {
	at := reflect.TypeOf(provenance.Answer{})
	for i := 0; i < at.NumField(); i++ {
		if f := at.Field(i); f.Type.Kind() == reflect.Slice && hasPointers(f.Type.Elem()) {
			t.Fatalf("provenance.Answer.%s is a %s: a per-answer list the collector must scan", f.Name, f.Type)
		}
	}
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random, so the allocation count means nothing")
	}
	e, runID, admin, root := largeSite(t)
	ctx := context.Background()
	var buf []byte
	answer := func() {
		a, _, err := e.DeepAnswerTracedCtx(ctx, runID, admin, root)
		if err != nil {
			t.Fatal(err)
		}
		buf = AppendAnswer(buf[:0], a)
	}
	answer() // closure, mapping, token tables, buffer
	if len(buf) < 50<<10 {
		t.Fatalf("answer is only %d bytes; the fixture no longer stands for a large answer", len(buf))
	}
	if allocs := testing.AllocsPerRun(20, answer); allocs > 6 {
		t.Fatalf("warm project + encode of a %d-byte answer: %v allocs/op, want <= 6", len(buf), allocs)
	}
}

// hasPointers reports whether values of t hold anything the collector
// follows.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Float32, reflect.Float64:
		return false
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}
