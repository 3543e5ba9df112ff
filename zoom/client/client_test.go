package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/run"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/warehouse"
	"repro/zoom/client"
)

// newTestServer boots a real server over the paper's example warehouse.
func newTestServer(t *testing.T) *httptest.Server {
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
	s, err := server.New(obs.NewRegistry(), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetEngine(provenance.NewEngine(w))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestClientQueryBatchRunsStats(t *testing.T) {
	ts := newTestServer(t)
	c := client.New(ts.URL, client.Options{})
	ctx := context.Background()

	q, err := c.Query(ctx, client.QueryRequest{Run: "fig2", Data: "d447", View: "joe"})
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind != "deep" || q.Result == nil || len(q.Result.Executions) == 0 {
		t.Fatalf("deep query answer unexpected: %+v", q)
	}
	if q.TraceID == "" {
		t.Fatal("query answer carries no trace id from the response header")
	}

	im, err := c.Query(ctx, client.QueryRequest{Run: "fig2", Data: "d413", Kind: "immediate"})
	if err != nil {
		t.Fatal(err)
	}
	if im.Execution == nil {
		t.Fatal("immediate query returned no execution")
	}

	b, err := c.Batch(ctx, client.BatchRequest{Run: "fig2", Data: []string{"d447", "d413"}})
	if err != nil {
		t.Fatal(err)
	}
	if b.Count != 2 || len(b.Results) != 2 || b.TraceID == "" {
		t.Fatalf("batch count %d / %d results (trace %q), want 2 and a trace id", b.Count, len(b.Results), b.TraceID)
	}

	runs, err := c.Runs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Count != 1 || len(runs.Runs) != 1 || runs.Runs[0].ID != "fig2" || runs.TraceID == "" {
		t.Fatalf("runs listing unexpected: %+v", runs)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Stats) == 0 || st.TraceID == "" {
		t.Fatalf("stats document empty or untraced: %d bytes, trace %q", len(st.Stats), st.TraceID)
	}

	r, err := c.Ready(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Ready {
		t.Fatal("server not ready")
	}
}

func TestClientTraceIDPropagation(t *testing.T) {
	ts := newTestServer(t)
	c := client.New(ts.URL, client.Options{})
	const id = "00000000cafef00d"
	q, err := c.Query(context.Background(), client.QueryRequest{Run: "fig2", Data: "d447", TraceID: id})
	if err != nil {
		t.Fatal(err)
	}
	if q.TraceID != id {
		t.Fatalf("trace id %q, want propagated %q", q.TraceID, id)
	}
}

// TestClientTraceTree: a traced query or batch takes its span tree from the
// X-Zoom-Trace header into Trace, over the answer an untraced request
// decodes to; an untraced response has no tree.
func TestClientTraceTree(t *testing.T) {
	ts := newTestServer(t)
	c := client.New(ts.URL, client.Options{})
	ctx := context.Background()
	plain, err := c.Query(ctx, client.QueryRequest{Run: "fig2", Data: "d447"})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := c.Query(ctx, client.QueryRequest{Run: "fig2", Data: "d447", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	var tree obs.SpanNode
	if plain.Trace != nil || json.Unmarshal(traced.Trace, &tree) != nil || tree.Find("query.lookup") == nil {
		t.Fatalf("untraced tree %q, traced tree %q", plain.Trace, traced.Trace)
	}
	if !reflect.DeepEqual(plain.Result, traced.Result) {
		t.Fatal("traced answer differs from the untraced one")
	}
	b, err := c.Batch(ctx, client.BatchRequest{Run: "fig2", Data: []string{"d447", "d413"}, Trace: true})
	if err != nil || json.Unmarshal(b.Trace, &tree) != nil || tree.Find("batch.query d413") == nil {
		t.Fatalf("traced batch: tree %q, err %v", b.Trace, err)
	}
}

func TestClientErrors(t *testing.T) {
	ts := newTestServer(t)
	c := client.New(ts.URL, client.Options{})
	_, err := c.Query(context.Background(), client.QueryRequest{Run: "nope", Data: "d1"})
	var e *client.Error
	if !errors.As(err, &e) {
		t.Fatalf("want *Error, got %v", err)
	}
	if e.Status != http.StatusNotFound || e.Message == "" || e.TraceID == "" {
		t.Fatalf("error not decoded from server shape: %+v", e)
	}
}

func TestClientTimeout(t *testing.T) {
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer stall.Close()
	c := client.New(stall.URL, client.Options{Timeout: 50 * time.Millisecond})
	start := time.Now()
	_, err := c.Runs(context.Background())
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("timeout took %v, want ~50ms", d)
	}
}
