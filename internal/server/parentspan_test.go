package server

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/zoom/client"
)

// postTraced posts a query with trace headers and returns the decoded
// inline trace.
func postTraced(t *testing.T, s *Server, traceID, parentSpan string) *obs.SpanNode {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/query?trace=1",
		strings.NewReader(`{"run":"fig2","data":"d447"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(client.TraceIDHeader, traceID)
	if parentSpan != "" {
		req.Header.Set(client.ParentSpanHeader, parentSpan)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Trace *obs.SpanNode `json:"trace"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatal("no inline trace")
	}
	return resp.Trace
}

// TestServerParentSpanTag checks the worker half of cross-process
// stitching: a routed, traced request carries X-Zoom-Parent-Span, and the
// worker tags its root span with the sanitized value so the router's
// stitched tree names the attempt the subtree answered.
func TestServerParentSpanTag(t *testing.T) {
	s, _ := newTestServer(t, Config{})

	const id = "00000000deadbeef"
	tr := postTraced(t, s, id, id+".a1")
	if got := tr.Tags["parent_span"]; got != id+".a1" {
		t.Fatalf("root parent_span = %q, want %q", got, id+".a1")
	}

	// Without the header there is no tag at all.
	tr = postTraced(t, s, id, "")
	if _, ok := tr.Tags["parent_span"]; ok {
		t.Fatalf("parent_span tag appeared without the header: %+v", tr.Tags)
	}

	// Hostile values — wrong charset, over-long — are dropped, never
	// echoed into the span tree.
	for _, hostile := range []string{
		`inject"quote`,
		"semi;colon",
		"new\nline",
		strings.Repeat("a", obs.MaxHeaderToken+1),
	} {
		tr = postTraced(t, s, id, hostile)
		if got, ok := tr.Tags["parent_span"]; ok {
			t.Fatalf("hostile header %q reached the trace as %q", hostile, got)
		}
	}
}

// TestServerRuntimeMetrics checks the worker registry carries the process
// gauges after New (the obs.AttachRuntime satellite).
func TestServerRuntimeMetrics(t *testing.T) {
	_, reg := newTestServer(t, Config{})
	s := reg.Snapshot()
	if s.Gauges["runtime.goroutines"] <= 0 || s.Gauges["runtime.heap_bytes"] <= 0 {
		t.Fatalf("runtime gauges missing: %+v", s.Gauges)
	}
	if s.Infos["runtime.build_info"]["go_version"] == "" {
		t.Fatalf("build info missing: %+v", s.Infos)
	}
}
