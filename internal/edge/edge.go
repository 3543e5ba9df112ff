// Package edge is the request boundary both HTTP tiers share: the worker
// (`zoom serve`, package server) and the router (`zoom router`, package
// cluster) wrap every API route with the same Edge and write every body
// through the same helpers, so a trace id, a status class, a 413 or an error
// body means the same thing whichever tier sent it. The one input that
// differs by tier is the metric prefix: "http" on the worker, "router" on the
// router. Each tier keeps only its own handlers.
package edge

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/zoom/client"
)

// DefaultSlowThreshold is the slowlog threshold when none is configured.
const DefaultSlowThreshold = 10 * time.Millisecond

// MaxBodyBytes bounds every request body; provenance requests are tiny.
const MaxBodyBytes = 1 << 20

// ContentJSON is the content type of every API body.
const ContentJSON = "application/json"

// Handler is an API endpoint body. It runs under the request's trace and
// records its spans on the root; a handler that needs the trace on a context
// calls tr.Context(r.Context()) itself, so the ones that do not pay nothing
// for it.
type Handler func(tr *obs.Trace, w http.ResponseWriter, r *http.Request)

// Edge is one tier's request boundary: its request instruments, its slowlog,
// and the operational routes that read them.
type Edge struct {
	reg       *obs.Registry
	prefix    string
	threshold time.Duration
	slow      *obs.SlowLog

	requests  *obs.Counter
	errors    *obs.Counter
	slowCount *obs.Counter
	requestNs *obs.Histogram
}

// New returns a tier's boundary, counting under prefix in reg (which also
// gets the process gauges). A zero slowThreshold selects
// DefaultSlowThreshold and a negative one logs every request; slowLogSize
// <= 0 selects 128 entries.
func New(reg *obs.Registry, prefix string, slowThreshold time.Duration, slowLogSize int) *Edge {
	if slowThreshold == 0 {
		slowThreshold = DefaultSlowThreshold
	}
	if slowLogSize <= 0 {
		slowLogSize = 128
	}
	obs.AttachRuntime(reg)
	return &Edge{
		reg:       reg,
		prefix:    prefix,
		threshold: slowThreshold,
		slow:      obs.NewSlowLog(slowLogSize),
		requests:  reg.Counter(prefix + ".requests"),
		errors:    reg.Counter(prefix + ".errors"),
		slowCount: reg.Counter(prefix + ".slow_requests"),
		requestNs: reg.Histogram(prefix + ".request_ns"),
	}
}

// SlowLog returns the tier's slow-request ring.
func (e *Edge) SlowLog() *obs.SlowLog { return e.slow }

// Mount adds the operational routes every tier serves: /healthz, /metrics
// (the registry as Prometheus text) and /debug/slowlog (newest first).
func (e *Edge) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WritePrometheus(w, e.reg.Snapshot(), "zoom")
	})
	mux.HandleFunc("GET /debug/slowlog", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]any{
			"threshold_ns": e.threshold.Nanoseconds(),
			"entries":      e.slow.Entries(),
		})
	})
}

// routeMetrics are one API route's instruments: request counters split by
// status class, a latency histogram, and an in-flight gauge. They are
// <prefix>.<key>.status.<N>xx, .ns and .in_flight in the registry; the
// Prometheus exposition folds the status class into a class="..." label.
type routeMetrics struct {
	status   [6]*obs.Counter // index status/100; 0 unused
	latency  *obs.Histogram
	inFlight *obs.Gauge
}

// routeKey names a route's instruments: its path below /v1/ with slashes as
// dots, so "POST /v1/query" is "query" and "GET /v1/cluster/stats" is
// "cluster.stats", apart from "GET /v1/stats".
func routeKey(route string) string {
	if i := strings.IndexByte(route, ' '); i >= 0 {
		route = route[i+1:]
	}
	return strings.ReplaceAll(strings.TrimPrefix(route, "/v1/"), "/", ".")
}

func (e *Edge) routeMetrics(route string) *routeMetrics {
	name := e.prefix + "." + routeKey(route)
	rm := &routeMetrics{
		latency:  e.reg.Histogram(name + ".ns"),
		inFlight: e.reg.Gauge(name + ".in_flight"),
	}
	for c := 1; c <= 5; c++ {
		rm.status[c] = e.reg.Counter(fmt.Sprintf("%s.status.%dxx", name, c))
	}
	return rm
}

// statusWriter records the response status for the metrics and the slowlog.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Wrap puts an API endpoint behind the boundary. Each request gets a trace
// whose id is a valid inbound X-Zoom-Trace-Id or a fresh one, and which is
// set on the response, errors included; no body carries it. A sanitized
// X-Zoom-Parent-Span tags the root span, so a routed, traced request names
// the router attempt it answers (a malformed one is dropped, never echoed).
// The request is counted in the tier's and the route's instruments, and it
// enters the slowlog when it runs at or over the threshold: only then is the
// span tree copied out of the trace. The route's instruments are resolved
// here, once.
func (e *Edge) Wrap(route string, h Handler) http.Handler {
	rm := e.routeMetrics(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTraceWithID(route, r.Header.Get(client.TraceIDHeader))
		if ps := obs.SanitizeHeaderToken(r.Header.Get(client.ParentSpanHeader)); ps != "" {
			tr.Root().SetTag("parent_span", ps)
		}
		w.Header().Set(client.TraceIDHeader, tr.ID())
		sw := &statusWriter{ResponseWriter: w}
		rm.inFlight.Add(1)
		start := time.Now()
		h(tr, sw, r)
		dur := time.Since(start)
		rm.inFlight.Add(-1)
		tr.Root().End()
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		e.requests.Inc()
		e.requestNs.Observe(dur.Nanoseconds())
		if c := sw.status / 100; c >= 1 && c <= 5 {
			rm.status[c].Inc()
		}
		rm.latency.Observe(dur.Nanoseconds())
		if sw.status >= 400 {
			e.errors.Inc()
		}
		if dur >= e.threshold {
			e.slowCount.Inc()
			e.slow.Add(obs.SlowEntry{
				Time:    time.Now(),
				TraceID: tr.ID(),
				Route:   route,
				Request: r.URL.RequestURI(),
				Status:  sw.status,
				DurNs:   dur.Nanoseconds(),
				Trace:   tr.Snapshot(),
			})
		}
	})
}

// WantInlineTrace reports whether the client asked for the span tree inline
// in the response body (?trace=1).
func WantInlineTrace(r *http.Request) bool {
	switch r.URL.Query().Get("trace") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// ErrorBody is the one JSON error shape of both tiers, so a client decodes a
// router-originated error (a fast 502, a 413) exactly like a worker's.
type ErrorBody struct {
	Error string `json:"error"`
}

// WriteError answers status with msg in an ErrorBody.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, ErrorBody{Error: msg})
}

// WriteJSON marshals v (compact; humans pipe to `jq .`) and only then
// commits the status, so a value that fails to encode is a well-formed 500
// and every body goes out in one write with its Content-Length stated.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(ErrorBody{Error: "encode response: " + err.Error()})
	}
	_ = WriteBody(w, status, ContentJSON, append(body, '\n'))
}

// WriteBody sends a fully buffered body in one write with its length stated,
// so the client never sees chunked framing for it. An empty contentType
// leaves the header unset.
func WriteBody(w http.ResponseWriter, status int, contentType string, body []byte) error {
	if contentType != "" {
		w.Header().Set("Content-Type", contentType)
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, err := w.Write(body)
	return err
}

// ReadBody reads r's body whole, up to MaxBodyBytes. When it cannot, it
// answers for the caller and returns false: a body over the cap is a 413
// naming the limit (the request may be well-formed, just too big), any other
// read failure a 400.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err == nil {
		return body, true
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		WriteError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body too large: limit is %d bytes", mbe.Limit))
	} else {
		WriteError(w, http.StatusBadRequest, "bad request: "+err.Error())
	}
	return nil, false
}

// Serve runs h on ln until ctx is cancelled, then shuts down gracefully: the
// listener closes at once and in-flight requests get up to drain to finish.
// It returns nil after a clean drain.
func Serve(ctx context.Context, ln net.Listener, h http.Handler, drain time.Duration) error {
	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := srv.Shutdown(sctx)
	if e := <-errc; e != nil && !errors.Is(e, http.ErrServerClosed) && err == nil {
		err = e
	}
	return err
}
