package edge

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/zoom/client"
)

// TestRouteKey: every route of both tiers gets its own instruments, the
// router's /v1/cluster/stats apart from /v1/stats.
func TestRouteKey(t *testing.T) {
	for route, want := range map[string]string{
		"POST /v1/query":        "query",
		"POST /v1/batch":        "batch",
		"GET /v1/runs":          "runs",
		"GET /v1/stats":         "stats",
		"GET /v1/cluster/stats": "cluster.stats",
		"GET /v1/shards":        "shards",
	} {
		if got := routeKey(route); got != want {
			t.Errorf("routeKey(%q) = %q, want %q", route, got, want)
		}
	}
}

// TestWrapCountsWhatTheHandlerAnswers: the status a handler commits — or the
// implicit 200 of one that only writes — lands in the route's class counter,
// and the response names the request's trace.
func TestWrapCountsWhatTheHandlerAnswers(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(reg, "tier", time.Hour, 0)
	h := e.Wrap("POST /v1/query", func(_ *obs.Trace, w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.RawQuery, "fail") {
			WriteError(w, http.StatusNotFound, "no such thing")
			return
		}
		_, _ = w.Write([]byte("{}\n"))
	})
	for _, q := range []string{"", "fail", ""} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query?"+q, nil))
		if !obs.ValidTraceID(rec.Header().Get(client.TraceIDHeader)) {
			t.Fatalf("response names no trace: %q", rec.Header().Get(client.TraceIDHeader))
		}
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"tier.requests":         3,
		"tier.errors":           1,
		"tier.slow_requests":    0,
		"tier.query.status.2xx": 2,
		"tier.query.status.4xx": 1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
}
