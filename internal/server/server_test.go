package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/warehouse"
	"repro/internal/wflog"
	"repro/zoom/client"
)

// newTestEngine loads the paper's running example (Figure 1 spec, Figure 2
// run) plus a registered "joe" view into a fresh warehouse.
func newTestEngine(t *testing.T) *provenance.Engine {
	t.Helper()
	w := warehouse.New(0)
	sp := spec.Phylogenomics()
	if err := w.RegisterSpec(sp); err != nil {
		t.Fatal(err)
	}
	if err := w.LoadRun(run.Figure2()); err != nil {
		t.Fatal(err)
	}
	joe, err := core.BuildRelevant(sp, spec.PhyloRelevantJoe())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RegisterView("joe", joe); err != nil {
		t.Fatal(err)
	}
	return provenance.NewEngine(w)
}

// newTestServer returns a ready server and its registry. cfg.ExpvarName
// stays empty (expvar names are process-global and tests run repeatedly).
func newTestServer(t *testing.T, cfg Config) (*Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	s, err := New(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t)
	e.AttachMetrics(reg)
	s.SetEngine(e)
	return s, reg
}

// doJSON posts a JSON body and decodes the JSON response.
func doJSON(t *testing.T, h http.Handler, method, url string, body, out any) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req := httptest.NewRequest(method, url, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code < 500 && strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON response %q: %v", method, url, rec.Body.String(), err)
		}
	}
	return rec
}

// headerTree decodes the span tree a traced response carries in its
// X-Zoom-Trace header.
func headerTree(t *testing.T, h http.Header) *obs.SpanNode {
	t.Helper()
	var n obs.SpanNode
	if err := json.Unmarshal([]byte(h.Get(client.TraceHeader)), &n); err != nil {
		t.Fatalf("X-Zoom-Trace %.200q does not decode: %v", h.Get(client.TraceHeader), err)
	}
	return &n
}

func TestServerHealthAndReadiness(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New(reg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	// Health answers before the warehouse loads; readiness and the API do
	// not.
	rec := doJSON(t, h, "GET", "/healthz", nil, nil)
	if rec.Code != 200 {
		t.Fatalf("/healthz before load: %d", rec.Code)
	}
	rec = doJSON(t, h, "GET", "/readyz", nil, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before load: %d, want 503", rec.Code)
	}
	for _, u := range []string{"/v1/runs", "/v1/stats"} {
		if rec = doJSON(t, h, "GET", u, nil, nil); rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("GET %s before load: %d, want 503", u, rec.Code)
		}
		if rec.Header().Get("X-Zoom-Trace-Id") == "" {
			t.Fatalf("GET %s: 503 without a trace id", u)
		}
	}
	rec = doJSON(t, h, "POST", "/v1/query", queryRequest{Run: "fig2", Data: "d447"}, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("query before load: %d, want 503", rec.Code)
	}
	if snap := reg.Snapshot(); snap.Gauges["server.ready"] != 0 {
		t.Fatalf("server.ready = %d before load", snap.Gauges["server.ready"])
	}

	s.SetEngine(newTestEngine(t))
	if rec = doJSON(t, h, "GET", "/readyz", nil, nil); rec.Code != 200 {
		t.Fatalf("/readyz after load: %d", rec.Code)
	}
	if snap := reg.Snapshot(); snap.Gauges["server.ready"] != 1 {
		t.Fatalf("server.ready = %d after load", snap.Gauges["server.ready"])
	}
}

func TestServerQueryDeep(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()

	req := queryRequest{Run: "fig2", Data: "d447", Relevant: spec.PhyloRelevantJoe()}
	var resp queryResponse
	rec := doJSON(t, h, "POST", "/v1/query", req, &resp)
	if rec.Code != 200 {
		t.Fatalf("query: %d: %s", rec.Code, rec.Body.String())
	}
	if !obs.ValidTraceID(rec.Header().Get(client.TraceIDHeader)) {
		t.Fatalf("trace id header %q", rec.Header().Get(client.TraceIDHeader))
	}
	if resp.Kind != "deep" {
		t.Fatalf("kind=%q, want deep", resp.Kind)
	}
	if resp.Result == nil || len(resp.Result.Data) == 0 || len(resp.Result.Executions) == 0 {
		t.Fatalf("empty result: %+v", resp.Result)
	}
	if v := rec.Header().Get(client.TraceHeader); v != "" {
		t.Fatalf("span tree sent without ?trace=1: %s", v)
	}
	for _, key := range []string{`"trace_id"`, `"outcome"`, `"timing"`} {
		if bytes.Contains(rec.Body.Bytes(), []byte(key)) {
			t.Fatalf("answer body carries %s: %s", key, rec.Body)
		}
	}

	// Same query again: the closure cache serves it, under a fresh trace
	// id, and the answer is the cold one byte for byte.
	warm := doJSON(t, h, "POST", "/v1/query", req, nil)
	if warm.Header().Get(client.TraceIDHeader) == rec.Header().Get(client.TraceIDHeader) {
		t.Fatal("trace id reused across requests")
	}
	if !bytes.Equal(warm.Body.Bytes(), rec.Body.Bytes()) {
		t.Fatalf("warm answer differs from the cold one\ncold: %s\nwarm: %s", rec.Body, warm.Body)
	}
}

func TestServerQueryInlineTrace(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()

	req := queryRequest{Run: "fig2", Data: "d447"}
	coldRec := doJSON(t, h, "POST", "/v1/query?trace=1", req, nil)
	if coldRec.Code != 200 {
		t.Fatalf("cold query: %d", coldRec.Code)
	}
	cold := headerTree(t, coldRec.Header())
	// The cold span tree shows the PR-4 engine stages: the cache lookup
	// with the closure computation nested inside it, then the projection.
	lookup := cold.Find("query.lookup")
	if lookup == nil {
		t.Fatalf("no query.lookup span: %+v", cold)
	}
	if lookup.Tags["outcome"] != "miss" {
		t.Fatalf("cold query.lookup outcome %q, want miss", lookup.Tags["outcome"])
	}
	if lookup.Find("closure.compute") == nil {
		t.Fatalf("cold lookup has no closure.compute child: %+v", lookup)
	}
	project := cold.Find("query.project")
	if project == nil {
		t.Fatalf("no query.project span: %+v", cold)
	}
	if lookup.DurNs <= 0 || project.DurNs < 0 {
		t.Fatalf("span durations lookup=%d project=%d", lookup.DurNs, project.DurNs)
	}
	if cold.DurNs < lookup.DurNs {
		t.Fatalf("root (%dns) shorter than lookup (%dns)", cold.DurNs, lookup.DurNs)
	}

	// Warm: the lookup span remains, a hit, but nothing is computed.
	warmRec := doJSON(t, h, "POST", "/v1/query?trace=1", req, nil)
	warm := headerTree(t, warmRec.Header())
	if lookup := warm.Find("query.lookup"); lookup == nil || lookup.Tags["outcome"] != "hit" {
		t.Fatalf("warm trace lost query.lookup or its hit outcome: %+v", lookup)
	}
	if warm.Find("closure.compute") != nil {
		t.Fatal("warm trace recorded closure.compute on a cache hit")
	}

	// The tree is in the header only: both traced answers are the
	// untraced one byte for byte, and an untraced answer has no tree.
	plain := doJSON(t, h, "POST", "/v1/query", req, nil)
	for _, traced := range []*httptest.ResponseRecorder{coldRec, warmRec} {
		if !bytes.Equal(traced.Body.Bytes(), plain.Body.Bytes()) {
			t.Fatalf("traced answer differs from the untraced one\ntraced:   %s\nuntraced: %s", traced.Body, plain.Body)
		}
	}
	if v := plain.Header().Get(client.TraceHeader); v != "" {
		t.Fatalf("untraced answer carries a tree: %s", v)
	}
}

func TestServerQueryKinds(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()

	var imm queryResponse
	rec := doJSON(t, h, "POST", "/v1/query", queryRequest{Run: "fig2", Data: "d447", Kind: "immediate"}, &imm)
	if rec.Code != 200 || imm.Execution == nil {
		t.Fatalf("immediate: %d %+v", rec.Code, imm.Execution)
	}
	if imm.Execution.ID != "S10" {
		t.Fatalf("immediate provenance of d447 under UAdmin = %q, want S10", imm.Execution.ID)
	}

	// External input: immediate provenance is nil, not an error.
	var ext queryResponse
	rec = doJSON(t, h, "POST", "/v1/query", queryRequest{Run: "fig2", Data: "d1", Kind: "immediate"}, &ext)
	if rec.Code != 200 || ext.Execution != nil {
		t.Fatalf("immediate of input: %d %+v", rec.Code, ext.Execution)
	}

	var der queryResponse
	rec = doJSON(t, h, "POST", "/v1/query?trace=1", queryRequest{Run: "fig2", Data: "d1", Kind: "derived"}, &der)
	if rec.Code != 200 || der.Result == nil || len(der.Result.Data) == 0 {
		t.Fatalf("derived: %d %+v", rec.Code, der.Result)
	}
	if headerTree(t, rec.Header()).Find("query.derived") == nil {
		t.Fatal("derived query recorded no query.derived span")
	}

	if rec = doJSON(t, h, "POST", "/v1/query", queryRequest{Run: "fig2", Data: "d447", Kind: "sideways"}, nil); rec.Code != 400 {
		t.Fatalf("unknown kind: %d, want 400", rec.Code)
	}
}

func TestServerQueryErrors(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()

	cases := []struct {
		name string
		body any
		raw  string
		want int
	}{
		{name: "bad json", raw: "{not json", want: 400},
		{name: "unknown field", raw: `{"run":"fig2","data":"d447","vew":"joe"}`, want: 400},
		{name: "retired labels field", raw: `{"run":"fig2","data":"d447","labels":true}`, want: 400},
		{name: "missing run", body: queryRequest{Data: "d447"}, want: 400},
		{name: "missing data", body: queryRequest{Run: "fig2"}, want: 400},
		{name: "unknown run", body: queryRequest{Run: "ghost", Data: "d447"}, want: 404},
		{name: "unknown data", body: queryRequest{Run: "fig2", Data: "d99999"}, want: 404},
		{name: "unknown view", body: queryRequest{Run: "fig2", Data: "d447", View: "nobody"}, want: 404},
		{name: "view and relevant", body: queryRequest{Run: "fig2", Data: "d447", View: "joe", Relevant: []string{"M2"}}, want: 400},
		{name: "bad relevant", body: queryRequest{Run: "fig2", Data: "d447", Relevant: []string{"M99"}}, want: 400},
	}
	for _, c := range cases {
		var rec *httptest.ResponseRecorder
		if c.raw != "" {
			req := httptest.NewRequest("POST", "/v1/query", strings.NewReader(c.raw))
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, req)
		} else {
			rec = doJSON(t, h, "POST", "/v1/query", c.body, nil)
		}
		if rec.Code != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, rec.Code, c.want, rec.Body.String())
		}
		if rec.Header().Get("X-Zoom-Trace-Id") == "" {
			t.Errorf("%s: error response without trace id", c.name)
		}
		var eb edge.ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body %q", c.name, rec.Body.String())
		}
	}
}

func TestServerBatch(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()

	data := []string{"d447", "d413", "d414", "d446", "d409"}
	var resp batchResponse
	rec := doJSON(t, h, "POST", "/v1/batch?trace=1",
		batchRequest{Run: "fig2", Data: data, View: "joe"}, &resp)
	if rec.Code != 200 {
		t.Fatalf("batch: %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Count != len(data) || len(resp.Results) != len(data) {
		t.Fatalf("batch answered %d/%d", resp.Count, len(data))
	}
	for i, r := range resp.Results {
		if r == nil || r.Root != data[i] {
			t.Fatalf("result %d: %+v, want root %s", i, r, data[i])
		}
	}
	// Each member query records its own span under the root.
	tree := headerTree(t, rec.Header())
	for _, d := range data {
		if tree.Find("batch.query "+d) == nil {
			t.Fatalf("no span for batch member %s: %+v", d, tree)
		}
	}

	// A bad id fails the whole batch with a 404.
	rec = doJSON(t, h, "POST", "/v1/batch", batchRequest{Run: "fig2", Data: []string{"d447", "dYYY"}}, nil)
	if rec.Code != 404 {
		t.Fatalf("batch with bad id: %d, want 404", rec.Code)
	}
	// An empty batch is a client error.
	rec = doJSON(t, h, "POST", "/v1/batch", batchRequest{Run: "fig2"}, nil)
	if rec.Code != 400 {
		t.Fatalf("empty batch: %d, want 400", rec.Code)
	}
	// So is a pool width: a batch is answered on its request's goroutine,
	// and "workers" is an unknown field like any other.
	rec = doJSON(t, h, "POST", "/v1/batch", json.RawMessage(`{"run":"fig2","data":["d447"],"workers":4}`), nil)
	if rec.Code != 400 || !strings.Contains(rec.Body.String(), `unknown field \"workers\"`) {
		t.Fatalf("batch with workers: %d %s, want a 400 naming the field", rec.Code, rec.Body.String())
	}
}

// TestServerBatchSpanBound: a traced batch of 5,000 entries, which would
// record three or four spans each, records obs.MaxSpans in all, and its
// root says how many it dropped.
func TestServerBatchSpanBound(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	data := make([]string, 5000)
	for i := range data {
		data[i] = "d1"
	}
	rec := doJSON(t, s.Handler(), "POST", "/v1/batch?trace=1", batchRequest{Run: "fig2", Data: data}, nil)
	if rec.Code != 200 {
		t.Fatalf("batch: %d: %.200s", rec.Code, rec.Body)
	}
	tree := headerTree(t, rec.Header())
	var count func(n *obs.SpanNode) int
	count = func(n *obs.SpanNode) int {
		c := 1
		for i := range n.Children {
			c += count(&n.Children[i])
		}
		return c
	}
	if got := count(tree); got != obs.MaxSpans {
		t.Fatalf("traced 5,000-entry batch holds %d spans, want the bound %d", got, obs.MaxSpans)
	}
	if n, err := strconv.Atoi(tree.Tags["dropped_spans"]); err != nil || n < len(data) {
		t.Fatalf("root dropped_spans = %q, want at least %d", tree.Tags["dropped_spans"], len(data))
	}
}

func TestServerRunsAndStats(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()

	var runsResp struct {
		Runs []warehouse.RunInfo `json:"runs"`
	}
	if rec := doJSON(t, h, "GET", "/v1/runs", nil, &runsResp); rec.Code != 200 {
		t.Fatalf("/v1/runs: %d", rec.Code)
	}
	if len(runsResp.Runs) != 1 || runsResp.Runs[0].ID != "fig2" ||
		runsResp.Runs[0].Spec != "phylogenomics" || runsResp.Runs[0].Steps != 10 {
		t.Fatalf("runs: %+v", runsResp.Runs)
	}

	var statsResp struct {
		Stats map[string]any `json:"stats"`
	}
	if rec := doJSON(t, h, "GET", "/v1/stats", nil, &statsResp); rec.Code != 200 {
		t.Fatalf("/v1/stats: %d", rec.Code)
	}
	if len(statsResp.Stats) == 0 {
		t.Fatal("empty stats")
	}

	// After one encoded deep answer the worker holds one closure, one
	// mapping and the run's token tables, and /v1/stats says so.
	if rec := doJSON(t, h, "POST", "/v1/query", map[string]string{"run": "fig2", "data": "d447"}, nil); rec.Code != 200 {
		t.Fatalf("/v1/query: %d %s", rec.Code, rec.Body)
	}
	var held struct {
		Stats warehouse.Stats `json:"stats"`
	}
	if rec := doJSON(t, h, "GET", "/v1/stats", nil, &held); rec.Code != 200 {
		t.Fatalf("/v1/stats: %d", rec.Code)
	}
	c, m := held.Stats.Closures, held.Stats.Mappings
	if c.Entries != 1 || c.Bytes <= 0 || m.Entries != 1 || m.Bytes <= 0 || held.Stats.Index.TokenBytes <= 0 {
		t.Fatalf("after one deep answer /v1/stats reports closures %+v, mappings %+v, token bytes %d", c, m, held.Stats.Index.TokenBytes)
	}
}

// TestServerRunsListsFromDirectory: GET /v1/runs on a freshly opened v3
// snapshot answers from the run directory — no run materializes — with the
// bytes a heap warehouse holding the same runs answers (the router's merged
// listing is assembled from these).
func TestServerRunsListsFromDirectory(t *testing.T) {
	heap := newTestEngine(t)
	hw := heap.Warehouse()
	second, err := run.FromLog("fig2-again", "phylogenomics", mustToLog(t, run.Figure2()))
	if err != nil {
		t.Fatal(err)
	}
	if err := hw.LoadRun(second); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wh.v3")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := hw.SaveV3(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	mapped, err := warehouse.OpenV3(path, 0, warehouse.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	list := func(e *provenance.Engine) []byte {
		s, err := New(obs.NewRegistry(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		s.SetEngine(e)
		req := httptest.NewRequest("GET", "/v1/runs", nil)
		req.Header.Set(client.TraceIDHeader, "00000000000000aa")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("/v1/runs: %d %s", rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	got, want := list(provenance.NewEngine(mapped)), list(heap)
	if !bytes.Equal(got, want) {
		t.Fatalf("listing differs:\nmapped %s\nheap   %s", got, want)
	}
	if !bytes.Contains(got, []byte(`"count":2`)) {
		t.Fatalf("listing: %s", got)
	}
	if st := mapped.Stats().Snapshot; st.RunsTotal != 2 || st.RunsMaterialized != 0 {
		t.Fatalf("listing materialized runs: %+v", st)
	}
}

func mustToLog(t *testing.T, r *run.Run) []wflog.Event {
	t.Helper()
	events, err := r.ToLog()
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func TestServerMetricsExposition(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()

	// Generate traffic first so the histograms have observations.
	doJSON(t, h, "POST", "/v1/query", queryRequest{Run: "fig2", Data: "d447"}, nil)
	doJSON(t, h, "POST", "/v1/query", queryRequest{Run: "fig2", Data: "d447"}, nil)
	doJSON(t, h, "POST", "/v1/query", queryRequest{Run: "ghost", Data: "dX"}, nil)

	rec := doJSON(t, h, "GET", "/metrics", nil, nil)
	if rec.Code != 200 {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	text := rec.Body.String()
	for _, want := range []string{
		"# TYPE zoom_http_requests counter",
		"# TYPE zoom_http_request_ns histogram",
		"# TYPE zoom_server_ready gauge",
		"zoom_server_ready 1",
		`zoom_query_deep_total_ns_count{outcome="hit"}`,
		`zoom_query_deep_total_ns_count{outcome="miss"}`,
		`le="+Inf"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, "zoom_http_errors 1") {
		t.Fatalf("error counter not exported:\n%s", text)
	}
}

func TestServerSlowlog(t *testing.T) {
	// A negative threshold logs every request; the ring keeps the newest 128.
	s, _ := newTestServer(t, Config{SlowThreshold: -1})
	h := s.Handler()

	for i := 0; i < 130; i++ {
		doJSON(t, h, "POST", "/v1/query?trace=1", queryRequest{Run: "fig2", Data: "d447"}, nil)
	}
	var resp struct {
		ThresholdNs int64           `json:"threshold_ns"`
		Entries     []obs.SlowEntry `json:"entries"`
	}
	if rec := doJSON(t, h, "GET", "/debug/slowlog", nil, &resp); rec.Code != 200 {
		t.Fatalf("/debug/slowlog: %d", rec.Code)
	}
	if len(resp.Entries) != 128 {
		t.Fatalf("slow log holds %d entries, want ring size 128", len(resp.Entries))
	}
	for i, e := range resp.Entries {
		if e.TraceID == "" || e.Route != "POST /v1/query" || e.Status != 200 || e.DurNs < 0 {
			t.Fatalf("entry %d malformed: %+v", i, e)
		}
		if e.Trace.Find("query.lookup") == nil {
			t.Fatalf("entry %d span tree lost the engine stages: %+v", i, e.Trace)
		}
		if i > 0 && e.Time.After(resp.Entries[i-1].Time) {
			t.Fatalf("entries not newest-first at %d", i)
		}
	}
}

func TestSlowLogRing(t *testing.T) {
	l := obs.NewSlowLog(4)
	if l.Len() != 0 {
		t.Fatalf("fresh ring Len = %d", l.Len())
	}
	for i := 0; i < 10; i++ {
		l.Add(obs.SlowEntry{DurNs: int64(i)})
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4", l.Len())
	}
	got := l.Entries()
	for i, want := range []int64{9, 8, 7, 6} {
		if got[i].DurNs != want {
			t.Fatalf("entry %d = %d, want %d (newest first)", i, got[i].DurNs, want)
		}
	}
}

func TestServerExpvarConflict(t *testing.T) {
	reg := obs.NewRegistry()
	name := fmt.Sprintf("zoom-test-conflict-%d", time.Now().UnixNano())
	if _, err := New(reg, Config{ExpvarName: name}); err != nil {
		t.Fatalf("first publish: %v", err)
	}
	if _, err := New(obs.NewRegistry(), Config{ExpvarName: name}); err == nil {
		t.Fatal("second server published the same expvar name without error")
	} else if !strings.Contains(err.Error(), name) {
		t.Fatalf("conflict error does not name the variable: %v", err)
	}
}

func TestServerDebugEndpoints(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	for _, u := range []string{"/debug/vars", "/debug/pprof/"} {
		if rec := doJSON(t, h, "GET", u, nil, nil); rec.Code != 200 {
			t.Fatalf("GET %s: %d", u, rec.Code)
		}
	}
}

// TestServerConcurrentBatchTrace hammers the API from many goroutines —
// traced batches, traced and untraced single queries, metric scrapes, and
// slow-log reads all at once — so -race can see the span tree, ring
// buffer, the warehouse's view memo, and registry interact. (`make race` runs every test
// matching Concurrent|Stress.)
func TestServerConcurrentBatchTrace(t *testing.T) {
	s, _ := newTestServer(t, Config{SlowThreshold: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	data := []string{"d447", "d413", "d414", "d446", "d409", "d201"}
	const workers = 8
	iters := 30
	if testing.Short() {
		iters = 5
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (w + i) % 4 {
				case 0:
					body, _ := json.Marshal(batchRequest{Run: "fig2", Data: data, Relevant: spec.PhyloRelevantJoe()})
					resp, err := http.Post(ts.URL+"/v1/batch?trace=1", "application/json", bytes.NewReader(body))
					if err != nil {
						errs <- err
						return
					}
					var br batchResponse
					err = json.NewDecoder(resp.Body).Decode(&br)
					resp.Body.Close()
					if err != nil || resp.StatusCode != 200 || br.Count != len(data) {
						errs <- fmt.Errorf("batch: status=%d count=%d err=%v", resp.StatusCode, br.Count, err)
						return
					}
				case 1, 2:
					body, _ := json.Marshal(queryRequest{Run: "fig2", Data: data[i%len(data)]})
					resp, err := http.Post(ts.URL+"/v1/query?trace=1", "application/json", bytes.NewReader(body))
					if err != nil {
						errs <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != 200 {
						errs <- fmt.Errorf("query status %d", resp.StatusCode)
						return
					}
				case 3:
					for _, u := range []string{"/metrics", "/debug/slowlog"} {
						resp, err := http.Get(ts.URL + u)
						if err != nil {
							errs <- err
							return
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := s.SlowLog().Len(); n == 0 {
		t.Fatal("no slow-log entries after a hammered run with threshold -1")
	}
}

// tinyEngine serves one run "r" of a spec called "tiny" whose modules form
// a chain INPUT -> mods[0] -> mods[1] -> ... -> OUTPUT; step S<i+1> runs
// mods[i], reading d<i> and writing d<i+1>.
func tinyEngine(t *testing.T, mods ...string) *provenance.Engine {
	t.Helper()
	s := spec.New("tiny")
	var events []wflog.Event
	prev := spec.Input
	for i, m := range mods {
		s.MustAddModule(spec.Module{Name: m})
		s.MustAddEdge(prev, m)
		prev = m
		step, seq := fmt.Sprintf("S%d", i+1), int64(3*i)
		events = append(events,
			wflog.Event{Seq: seq + 1, Kind: wflog.KindStart, Step: step, Module: m},
			wflog.Event{Seq: seq + 2, Kind: wflog.KindRead, Step: step, Data: fmt.Sprintf("d%d", i)},
			wflog.Event{Seq: seq + 3, Kind: wflog.KindWrite, Step: step, Data: fmt.Sprintf("d%d", i+1)})
	}
	s.MustAddEdge(prev, spec.Output)
	w := warehouse.New(0)
	if err := w.RegisterSpec(s); err != nil {
		t.Fatal(err)
	}
	if err := w.LoadLog("r", "tiny", events); err != nil {
		t.Fatal(err)
	}
	return provenance.NewEngine(w)
}

// TestViewMemoDiesWithEngine: the views a server resolves belong to its
// engine. After SetEngine installs a warehouse whose spec "tiny" gained a
// module, a relevant list the old engine had memoized is resolved over the
// new spec, so the answer is a fresh server's and not a 400 "view does not
// cover run". Spellings of one relevant set share one view.
func TestViewMemoDiesWithEngine(t *testing.T) {
	query := func(s *Server, data string) []byte {
		t.Helper()
		rec := doJSON(t, s.Handler(), "POST", "/v1/query", queryRequest{Run: "r", Data: data, Relevant: []string{"A"}}, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("query %s: status %d: %s", data, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	s, _ := newTestServer(t, Config{})
	s.SetEngine(tinyEngine(t, "A"))
	query(s, "d1")
	s.SetEngine(tinyEngine(t, "A", "B"))
	got := query(s, "d2")

	fresh, _ := newTestServer(t, Config{})
	fresh.SetEngine(tinyEngine(t, "A", "B"))
	if want := query(fresh, "d2"); !bytes.Equal(got, want) {
		t.Fatalf("after SetEngine:\n%s\nfresh server:\n%s", got, want)
	}

	e := tinyEngine(t, "A", "B")
	v1, err := resolveView(e, "r", "", []string{"B", "A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := resolveView(e, "r", "", []string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatal("two spellings of one relevant set resolved to different views")
	}
}

func TestReadyzReportsLoadProgress(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New(reg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	get := func() (int, readyzBody) {
		t.Helper()
		req := httptest.NewRequest("GET", "/readyz", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var body readyzBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("/readyz: bad JSON %q: %v", rec.Body.String(), err)
		}
		return rec.Code, body
	}

	// Before any load progress: not ready, zero counts.
	code, body := get()
	if code != http.StatusServiceUnavailable || body.Ready {
		t.Fatalf("/readyz before load: code=%d body=%+v", code, body)
	}
	if body.RunsLoaded != 0 || body.RunsTotal != 0 {
		t.Fatalf("/readyz before load: %+v, want 0/0", body)
	}

	// Mid-load: still 503, progress visible.
	s.SetLoadProgress(0, 8)
	s.SetLoadProgress(3, 8)
	code, body = get()
	if code != http.StatusServiceUnavailable || body.Ready {
		t.Fatalf("/readyz mid-load: code=%d body=%+v", code, body)
	}
	if body.RunsLoaded != 3 || body.RunsTotal != 8 {
		t.Fatalf("/readyz mid-load: %+v, want 3/8", body)
	}

	// Loaded: 200 with final counts.
	s.SetLoadProgress(8, 8)
	s.SetEngine(newTestEngine(t))
	code, body = get()
	if code != http.StatusOK || !body.Ready {
		t.Fatalf("/readyz after load: code=%d body=%+v", code, body)
	}
	if body.RunsLoaded != 8 || body.RunsTotal != 8 {
		t.Fatalf("/readyz after load: %+v, want 8/8", body)
	}
}

// TestServerTraceIDPropagation: a valid inbound X-Zoom-Trace-Id is adopted
// for the whole request (header and slow log; no body names it), so a routed
// query keeps one trace id end-to-end; an invalid one is replaced with a
// fresh id.
func TestServerTraceIDPropagation(t *testing.T) {
	s, _ := newTestServer(t, Config{SlowThreshold: -1})
	h := s.Handler()
	const id = "00000000deadbeef"

	body, _ := json.Marshal(map[string]any{"run": "fig2", "data": "d447"})
	req := httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body))
	req.Header.Set(client.TraceIDHeader, id)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(client.TraceIDHeader); got != id {
		t.Fatalf("response header id %q, want inbound %q", got, id)
	}
	if bytes.Contains(rec.Body.Bytes(), []byte(id)) {
		t.Fatalf("answer body names the trace: %s", rec.Body)
	}
	entries := s.SlowLog().Entries()
	if len(entries) == 0 || entries[0].TraceID != id {
		t.Fatalf("slow log did not keep the inbound trace id: %+v", entries)
	}

	// An invalid inbound id must be replaced, not echoed.
	req = httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body))
	req.Header.Set(client.TraceIDHeader, "not-a-trace-id!!")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	got := rec.Header().Get(client.TraceIDHeader)
	if got == "not-a-trace-id!!" || !obs.ValidTraceID(got) {
		t.Fatalf("invalid inbound id echoed or replacement invalid: %q", got)
	}
}

// TestServerRouteMetrics: on both tiers — a worker (prefix http) and a
// router in front of one (prefix router) — each API route owns status-class
// counters, a latency histogram and an in-flight gauge, because both wrap
// their routes in the one request edge, and they reach /metrics with the
// status class folded into a class label. Each tier's stats route (the
// worker's /v1/stats, the router's /v1/cluster/stats) is a series of its
// own, and a fast 502 counts in router.errors.
func TestServerRouteMetrics(t *testing.T) {
	for _, tc := range []struct {
		prefix string
		// stats is the tier's stats route and key its instruments' name.
		stats, statsKey string
		// serve returns the tier's handler and registry, and stop, which
		// takes the tier's worker away.
		serve func(t *testing.T) (h http.Handler, reg *obs.Registry, stop func())
	}{
		{"http", "/v1/stats", "stats", func(t *testing.T) (http.Handler, *obs.Registry, func()) {
			s, reg := newTestServer(t, Config{})
			return s.Handler(), reg, nil
		}},
		{"router", "/v1/cluster/stats", "cluster.stats", func(t *testing.T) (http.Handler, *obs.Registry, func()) {
			s, _ := newTestServer(t, Config{})
			ws := httptest.NewServer(s.Handler())
			t.Cleanup(ws.Close)
			reg := obs.NewRegistry()
			rt, err := cluster.New(reg, cluster.Config{Shards: [][]string{{ws.URL}}})
			if err != nil {
				t.Fatal(err)
			}
			return rt.Handler(), reg, ws.Close
		}},
	} {
		t.Run(tc.prefix, func(t *testing.T) {
			h, reg, stop := tc.serve(t)
			p := tc.prefix
			if rec := doJSON(t, h, "POST", "/v1/query", map[string]any{"run": "fig2", "data": "d447"}, nil); rec.Code != http.StatusOK {
				t.Fatalf("query: status %d: %s", rec.Code, rec.Body)
			}
			if rec := doJSON(t, h, "POST", "/v1/query", map[string]any{"run": "no-such-run", "data": "d447"}, nil); rec.Code != http.StatusNotFound {
				t.Fatalf("unknown run: status %d", rec.Code)
			}
			doJSON(t, h, "GET", "/v1/runs", nil, nil)
			doJSON(t, h, "GET", tc.stats, nil, nil)

			snap := reg.Snapshot()
			for name, want := range map[string]int64{
				p + ".query.status.2xx":               1,
				p + ".query.status.4xx":               1,
				p + ".runs.status.2xx":                1,
				p + "." + tc.statsKey + ".status.2xx": 1,
				p + ".requests":                       4,
				p + ".errors":                         1,
			} {
				if got := snap.Counters[name]; got != want {
					t.Errorf("counter %s = %d, want %d", name, got, want)
				}
			}
			if h := snap.Histograms[p+".query.ns"]; h.Count != 2 {
				t.Errorf("%s.query.ns count = %d, want 2", p, h.Count)
			}
			if g, ok := snap.Gauges[p+".query.in_flight"]; !ok || g != 0 {
				t.Errorf("%s.query.in_flight = %d (present %v), want 0", p, g, ok)
			}

			var prom bytes.Buffer
			obs.WritePrometheus(&prom, snap, "zoom")
			for _, want := range []string{
				`zoom_` + p + `_query_status{class="2xx"} 1`,
				`zoom_` + p + `_query_status{class="4xx"} 1`,
				`zoom_` + p + `_query_in_flight 0`,
				`zoom_` + p + `_query_ns_count 2`,
			} {
				if !strings.Contains(prom.String(), want) {
					t.Errorf("/metrics missing %q", want)
				}
			}
			if stop == nil {
				return
			}

			// With its only worker gone and the health poll knowing it, a
			// query fails fast: a 502 that counts as an error.
			stop()
			if rec := doJSON(t, h, "GET", "/readyz", nil, nil); rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("/readyz with the worker gone: %d, want 503", rec.Code)
			}
			if rec := doJSON(t, h, "POST", "/v1/query", map[string]any{"run": "fig2", "data": "d447"}, nil); rec.Code != http.StatusBadGateway {
				t.Fatalf("query with the worker gone: %d, want 502", rec.Code)
			}
			snap = reg.Snapshot()
			for name, want := range map[string]int64{
				"router.cluster.stats.status.2xx": 1,
				"router.query.status.5xx":         1,
				"router.fast_fails":               1,
				"router.errors":                   2,
			} {
				if got := snap.Counters[name]; got != want {
					t.Errorf("counter %s = %d, want %d", name, got, want)
				}
			}
		})
	}
}

// TestServerRunsSortedWithCount: GET /v1/runs reports a count and lists
// runs in sorted id order regardless of load order — the stable shape the
// cluster router's scatter-gather merge depends on.
func TestServerRunsSortedWithCount(t *testing.T) {
	w := warehouse.New(0)
	sp := spec.Phylogenomics()
	if err := w.RegisterSpec(sp); err != nil {
		t.Fatal(err)
	}
	// Load in non-sorted id order.
	for _, id := range []string{"zrun", "arun"} {
		r, _, err := run.Execute(sp, run.Config{RunID: id, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.LoadRun(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.LoadRun(run.Figure2()); err != nil {
		t.Fatal(err)
	}
	s, err := New(obs.NewRegistry(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetEngine(provenance.NewEngine(w))

	var resp struct {
		Count int `json:"count"`
		Runs  []struct {
			ID string `json:"id"`
		} `json:"runs"`
	}
	doJSON(t, s.Handler(), "GET", "/v1/runs", nil, &resp)
	if resp.Count != 3 || len(resp.Runs) != 3 {
		t.Fatalf("count %d, %d runs, want 3", resp.Count, len(resp.Runs))
	}
	want := []string{"arun", "fig2", "zrun"}
	for i, r := range resp.Runs {
		if r.ID != want[i] {
			t.Fatalf("runs[%d] = %q, want %q (sorted)", i, r.ID, want[i])
		}
	}
}

// TestServerConcurrentBatchDrain regression-pins the graceful-drain path:
// a SIGTERM (context cancellation, as cmdServe wires it) arriving while a
// /v1/batch is in flight must let the batch finish with a 200 while the
// listener stops accepting new connections.
func TestServerConcurrentBatchDrain(t *testing.T) {
	s, _ := newTestServer(t, Config{SlowThreshold: time.Hour})
	started := make(chan struct{})
	release := make(chan struct{})
	s.testHookBatchStarted = func() {
		close(started)
		<-release
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln, 10*time.Second) }()

	type reply struct {
		status int
		body   []byte
		err    error
	}
	resc := make(chan reply, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/batch", "application/json",
			strings.NewReader(`{"run":"fig2","data":["d447","d413"]}`))
		if err != nil {
			resc <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		resc <- reply{status: resp.StatusCode, body: b}
	}()

	<-started
	cancel() // what SIGTERM does in cmdServe

	// The listener must close while the batch is still being held open.
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, derr := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if derr != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("listener still accepting after shutdown began")
		}
		time.Sleep(10 * time.Millisecond)
	}

	close(release)
	res := <-resc
	if res.err != nil {
		t.Fatalf("in-flight batch failed during drain: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight batch status %d during drain: %s", res.status, res.body)
	}
	var batch struct {
		Count   int               `json:"count"`
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(res.body, &batch); err != nil {
		t.Fatalf("bad batch body after drain: %v", err)
	}
	if batch.Count != 2 || len(batch.Results) != 2 {
		t.Fatalf("drained batch answered %d/%d results, want 2", batch.Count, len(batch.Results))
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after drain", err)
	}
}
