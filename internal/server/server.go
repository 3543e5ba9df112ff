// Package server is the HTTP face of the provenance system: a JSON query
// API over the engine (deep, immediate, derived, and batch provenance),
// plus the operational surface a long-running service needs — Prometheus
// metrics, expvar, pprof, health/readiness probes, a slow-query log, and
// per-request trace ids.
//
// Every API request runs under an obs.Trace: the handler creates the trace
// at the boundary, the engine and warehouse record their stages as spans
// (query.lookup, closure.compute / closure.shared-wait, query.project,
// batch.query <id>), and the finished tree is returned inline with
// ?trace=1, referenced by the X-Zoom-Trace-Id response header, and kept in
// the slow log for requests over the threshold. The server is usable
// before its warehouse finishes loading: /healthz answers immediately,
// /readyz and the API answer 503 until SetEngine installs a loaded engine.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/warehouse"
)

// Config tunes a Server.
type Config struct {
	// SlowThreshold is the request duration at or above which a request
	// enters the slow log. Zero selects the 10ms default; negative logs
	// every request (useful in tests).
	SlowThreshold time.Duration
	// SlowLogSize bounds the slow-log ring (default 128).
	SlowLogSize int
	// ExpvarName, when non-empty, publishes the registry under this name
	// in the process-global expvar table (served at /debug/vars). New
	// fails if the name is already taken — a second server in the same
	// process must pick its own name or pass "".
	ExpvarName string
	// Workers bounds the per-batch worker pool (0 selects GOMAXPROCS).
	Workers int
}

// DefaultSlowThreshold is the slow-log threshold when none is configured.
const DefaultSlowThreshold = 10 * time.Millisecond

// maxBodyBytes bounds request bodies; provenance requests are tiny.
const maxBodyBytes = 1 << 20

// Server serves provenance queries over HTTP. Construct with New, install
// an engine with SetEngine (possibly after the handler is already
// serving), and mount Handler.
type Server struct {
	reg  *obs.Registry
	cfg  Config
	slow *obs.SlowLog

	engine atomic.Pointer[provenance.Engine]

	// Load progress, reported by /readyz while the warehouse is loading.
	// SetLoadProgress is the warehouse loader's LoadOptions.Progress hook.
	runsLoaded atomic.Int64
	runsTotal  atomic.Int64

	// generation is an opaque warehouse generation reported on /readyz:
	// seeded from the wall clock at construction (so two process
	// incarnations never share a value) and bumped on every SetEngine. A
	// router caches responses against it and invalidates when it changes.
	generation atomic.Int64

	// Request metrics, resolved once at construction.
	requests  *obs.Counter
	errCount  *obs.Counter
	requestNs *obs.Histogram
	slowCount *obs.Counter
	ready     *obs.Gauge

	// Per-route metrics (status-class counters, latency histogram,
	// in-flight gauge), resolved once at construction and keyed by the
	// short route name. The router scrapes these on both sides of a
	// forwarded request to attribute tail latency to router or worker.
	routes map[string]*routeMetrics

	// testHookBatchStarted, when set by a test, runs inside handleBatch
	// after the request is decoded and validated — the seam the graceful-
	// drain regression test uses to hold a batch in flight across SIGTERM.
	testHookBatchStarted func()
}

// New returns a server wired to the registry (one is created when nil).
// It fails fast when cfg.ExpvarName is already published, so a
// misconfigured second instance dies at startup, not at first scrape.
func New(reg *obs.Registry, cfg Config) (*Server, error) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = DefaultSlowThreshold
	}
	if cfg.SlowLogSize <= 0 {
		cfg.SlowLogSize = 128
	}
	if cfg.ExpvarName != "" {
		if err := reg.Publish(cfg.ExpvarName); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	obs.AttachRuntime(reg)
	s := &Server{
		reg:       reg,
		cfg:       cfg,
		slow:      obs.NewSlowLog(cfg.SlowLogSize),
		requests:  reg.Counter("http.requests"),
		errCount:  reg.Counter("http.errors"),
		requestNs: reg.Histogram("http.request_ns"),
		slowCount: reg.Counter("http.slow_requests"),
		ready:     reg.Gauge("server.ready"),
		routes:    make(map[string]*routeMetrics),
	}
	s.generation.Store(time.Now().UnixNano())
	for _, key := range routeKeys {
		s.routes[key] = newRouteMetrics(reg, key)
	}
	return s, nil
}

// routeKeys are the short names of the instrumented API routes; they
// appear in metric names as http.<key>.status.<class>, http.<key>.ns and
// http.<key>.in_flight (the status classes fold into class="..." labels
// in the Prometheus exposition).
var routeKeys = []string{"query", "batch", "runs", "stats"}

// routeMetrics are one API route's instruments: request counters split by
// status class, a latency histogram, and an in-flight gauge.
type routeMetrics struct {
	status   [6]*obs.Counter // index status/100; 0 unused
	latency  *obs.Histogram
	inFlight *obs.Gauge
}

func newRouteMetrics(reg *obs.Registry, key string) *routeMetrics {
	rm := &routeMetrics{
		latency:  reg.Histogram("http." + key + ".ns"),
		inFlight: reg.Gauge("http." + key + ".in_flight"),
	}
	for c := 1; c <= 5; c++ {
		rm.status[c] = reg.Counter(fmt.Sprintf("http.%s.status.%dxx", key, c))
	}
	return rm
}

// observe records one finished request on the route's instruments.
func (rm *routeMetrics) observe(status int, durNs int64) {
	if rm == nil {
		return
	}
	if c := status / 100; c >= 1 && c <= 5 {
		rm.status[c].Inc()
	}
	rm.latency.Observe(durNs)
}

// addInFlight adjusts the route's in-flight gauge (no-op on nil).
func (rm *routeMetrics) addInFlight(delta int64) {
	if rm != nil {
		rm.inFlight.Add(delta)
	}
}

// SetEngine installs the engine and flips the server ready. It may be
// called while the handler is serving — the warehouse typically loads in
// the background after the listener is already up. The views the server
// resolves are memoized by the engine, so they go with the old engine and
// its warehouse.
func (s *Server) SetEngine(e *provenance.Engine) {
	s.engine.Store(e)
	s.generation.Add(1)
	if e != nil {
		s.ready.Set(1)
	} else {
		s.ready.Set(0)
	}
}

// Generation returns the current warehouse generation (see readyzBody).
func (s *Server) Generation() int64 { return s.generation.Load() }

// Ready reports whether an engine is installed.
func (s *Server) Ready() bool { return s.engine.Load() != nil }

// SetLoadProgress records warehouse load progress for /readyz. Wire it as
// the loader's LoadOptions.Progress callback: it is safe to call
// concurrently and before the listener is up.
func (s *Server) SetLoadProgress(loaded, total int) {
	s.runsLoaded.Store(int64(loaded))
	s.runsTotal.Store(int64(total))
}

// LoadProgress returns the last recorded (loaded, total) run counts.
func (s *Server) LoadProgress() (loaded, total int) {
	return int(s.runsLoaded.Load()), int(s.runsTotal.Load())
}

// readyzBody is the JSON shape of GET /readyz — ready flag plus load
// progress, so an orchestrator (or a human with curl) can see how far
// along a cold start is instead of a bare 503.
type readyzBody struct {
	Ready      bool  `json:"ready"`
	RunsLoaded int   `json:"runs_loaded"`
	RunsTotal  int   `json:"runs_total"`
	Generation int64 `json:"generation"`
}

// SlowLog returns the server's slow-query ring.
func (s *Server) SlowLog() *obs.SlowLog { return s.slow }

// Registry returns the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the full route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/query", s.traced("POST /v1/query", s.handleQuery))
	mux.Handle("POST /v1/batch", s.traced("POST /v1/batch", s.handleBatch))
	mux.Handle("GET /v1/runs", s.traced("GET /v1/runs", s.handleRuns))
	mux.Handle("GET /v1/stats", s.traced("GET /v1/stats", s.handleStats))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/slowlog", s.handleSlowlog)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		loaded, total := s.LoadProgress()
		body := readyzBody{Ready: s.Ready(), RunsLoaded: loaded, RunsTotal: total, Generation: s.generation.Load()}
		status := http.StatusOK
		if !body.Ready {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, body)
	})
	return mux
}

// Serve runs the server on ln until ctx is cancelled, then shuts down
// gracefully: the listener closes immediately, in-flight requests get up
// to drain to finish. It returns nil after a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener, drain time.Duration) error {
	srv := &http.Server{Handler: s.Handler()}
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

// statusWriter records the response status for metrics and the slow log.
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

// apiHandler is an API endpoint body: it runs under the request's trace
// (ctx carries the root span) and gets the trace itself for inline
// snapshots.
type apiHandler func(ctx context.Context, tr *obs.Trace, w http.ResponseWriter, r *http.Request)

// TraceIDHeader carries the request's trace id on responses — and, since
// the handlers accept it inbound too, one id can follow a request through
// a router hop onto a worker, so both slow logs name the same trace.
const TraceIDHeader = "X-Zoom-Trace-Id"

// ParentSpanHeader carries, on traced routed requests, the router's
// attempt-span reference; the worker tags its root span with the
// sanitized value so the stitched tree names the attempt it answered.
const ParentSpanHeader = "X-Zoom-Parent-Span"

// routeKey maps a route ("POST /v1/query") to its metrics key ("query").
func routeKey(route string) string {
	if i := strings.LastIndexByte(route, '/'); i >= 0 {
		return route[i+1:]
	}
	return route
}

// traced wraps an API endpoint with the request boundary: a trace (id in
// X-Zoom-Trace-Id — a valid inbound id on the same header is adopted
// instead of minting one), request and per-route metrics, and slow-log
// capture when the request runs at or over the threshold. The span tree is
// copied out of the trace only for a request the slow log keeps.
func (s *Server) traced(route string, h apiHandler) http.Handler {
	rm := s.routes[routeKey(route)]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTraceWithID(route, r.Header.Get(TraceIDHeader))
		if ps := obs.SanitizeHeaderToken(r.Header.Get(ParentSpanHeader)); ps != "" {
			// A routed, traced request names the router attempt span it
			// answers; the tag survives into the returned tree so the
			// router's stitch is verifiable end-to-end. A malformed header
			// is dropped, never echoed.
			tr.Root().SetTag("parent_span", ps)
		}
		ctx := tr.Context(r.Context())
		w.Header().Set(TraceIDHeader, tr.ID())
		sw := &statusWriter{ResponseWriter: w}
		rm.addInFlight(1)
		start := time.Now()
		h(ctx, tr, sw, r)
		dur := time.Since(start)
		rm.addInFlight(-1)
		tr.Root().End()
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.requests.Inc()
		s.requestNs.Observe(dur.Nanoseconds())
		rm.observe(sw.status, dur.Nanoseconds())
		if sw.status >= 400 {
			s.errCount.Inc()
		}
		if dur >= s.cfg.SlowThreshold {
			s.slowCount.Inc()
			s.slow.Add(obs.SlowEntry{
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

// errorBody is the uniform JSON error shape.
type errorBody struct {
	Error   string `json:"error"`
	TraceID string `json:"trace_id,omitempty"`
}

// writeJSON marshals v (compact; humans pipe to `jq .`) and only then
// commits the status, so a value that fails to encode is a well-formed 500
// and every body goes out in one write with its Content-Length stated.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(errorBody{Error: "encode response: " + err.Error()})
	}
	writeBody(w, status, append(body, '\n'))
}

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeAnswer runs an answer encoder over a pooled buffer and writes what
// it produced; an encode failure is reported like any other server error.
// The buffer goes back to the pool once the ResponseWriter — which copies,
// never retains — has taken the bytes.
func writeAnswer(w http.ResponseWriter, tr *obs.Trace, encode func(dst []byte) ([]byte, error)) {
	bp := bufPool.Get().(*[]byte)
	body, err := encode((*bp)[:0])
	if err != nil {
		writeError(w, tr, fmt.Errorf("encode response: %w", err))
	} else {
		writeBody(w, http.StatusOK, body)
	}
	if cap(body) <= maxPooledBuf {
		*bp = body
		bufPool.Put(bp)
	}
}

// writeError maps engine/warehouse errors onto HTTP statuses: unknown
// names are the client's 404s, malformed requests 400s, everything else a
// 500.
func writeError(w http.ResponseWriter, tr *obs.Trace, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, warehouse.ErrUnknownRun),
		errors.Is(err, warehouse.ErrUnknownData),
		errors.Is(err, warehouse.ErrUnknownSpec),
		errors.Is(err, warehouse.ErrUnknownView):
		status = http.StatusNotFound
	case errors.Is(err, errTooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, errBadRequest),
		errors.Is(err, provenance.ErrForeignView),
		errors.Is(err, composite.ErrViewMismatch):
		status = http.StatusBadRequest
	}
	var id string
	if tr != nil {
		id = tr.ID()
	}
	writeJSON(w, status, errorBody{Error: err.Error(), TraceID: id})
}

// errBadRequest tags client errors produced by the server itself.
var errBadRequest = errors.New("bad request")

// errTooLarge tags requests rejected by the body size cap; they answer
// 413, not 400 — the request may be perfectly well-formed, just too big.
var errTooLarge = errors.New("request body too large")

// errNotReady answers API calls before the warehouse has loaded.
func (s *Server) engineOr503(w http.ResponseWriter, tr *obs.Trace) *provenance.Engine {
	e := s.engine.Load()
	if e == nil {
		var id string
		if tr != nil {
			id = tr.ID()
		}
		writeJSON(w, http.StatusServiceUnavailable,
			errorBody{Error: "warehouse loading, not ready", TraceID: id})
	}
	return e
}

// queryRequest is the body of POST /v1/query. Exactly one data object; the
// view is selected by name (a registered view of the run's specification),
// by relevant-module set (built on demand and memoized), or defaults to
// UAdmin (everything visible). Kind selects the query form.
type queryRequest struct {
	Run  string `json:"run"`
	Data string `json:"data"`
	// Kind is "deep" (default), "immediate", or "derived".
	Kind     string   `json:"kind,omitempty"`
	View     string   `json:"view,omitempty"`
	Relevant []string `json:"relevant,omitempty"`
}

// batchRequest is the body of POST /v1/batch: many data objects of one
// run under one view, answered in parallel.
type batchRequest struct {
	Run      string   `json:"run"`
	Data     []string `json:"data"`
	View     string   `json:"view,omitempty"`
	Relevant []string `json:"relevant,omitempty"`
	Workers  int      `json:"workers,omitempty"`
}

// decodeBody parses a bounded JSON request body, rejecting unknown fields
// so typos fail loudly.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return fmt.Errorf("%w: limit is %d bytes", errTooLarge, mbe.Limit)
		}
		return fmt.Errorf("%w: %v", errBadRequest, err)
	}
	return nil
}

// resolveView asks the engine for the view a request selects
// (Engine.View). A request naming both a view and a relevant list, or an
// invalid relevant list, is the client's error.
func resolveView(e *provenance.Engine, runID, viewName string, relevant []string) (*core.UserView, error) {
	if viewName != "" && len(relevant) > 0 {
		return nil, fmt.Errorf("%w: view and relevant are mutually exclusive", errBadRequest)
	}
	v, err := e.View(runID, viewName, relevant)
	if errors.Is(err, core.ErrBadRelevant) {
		return nil, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	return v, err
}

// wantInlineTrace reports whether the response should embed the span tree.
func wantInlineTrace(r *http.Request) bool {
	switch r.URL.Query().Get("trace") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// handleQuery answers one provenance query.
func (s *Server) handleQuery(ctx context.Context, tr *obs.Trace, w http.ResponseWriter, r *http.Request) {
	e := s.engineOr503(w, tr)
	if e == nil {
		return
	}
	var req queryRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, tr, err)
		return
	}
	if req.Run == "" || req.Data == "" {
		writeError(w, tr, fmt.Errorf("%w: run and data are required", errBadRequest))
		return
	}
	v, err := resolveView(e, req.Run, req.View, req.Relevant)
	if err != nil {
		writeError(w, tr, err)
		return
	}
	ans := queryAnswer{traceID: tr.ID(), run: req.Run, data: req.Data}
	switch req.Kind {
	case "", "deep":
		ans.kind = "deep"
		ans.result, ans.deep, err = e.DeepAnswerTracedCtx(ctx, req.Run, v, req.Data)
	case "immediate":
		ans.kind = "immediate"
		ans.execution, err = e.ImmediateProvenanceCtx(ctx, req.Run, v, req.Data)
	case "derived":
		ans.kind = "derived"
		_, sp := obs.StartSpan(ctx, "query.derived")
		ans.result, err = e.DerivationAnswer(req.Run, v, req.Data)
		sp.End()
	default:
		err = fmt.Errorf("%w: unknown kind %q (deep, immediate, derived)", errBadRequest, req.Kind)
	}
	if err != nil {
		writeError(w, tr, err)
		return
	}
	if wantInlineTrace(r) {
		node := tr.Snapshot()
		ans.spans = &node
	}
	writeAnswer(w, tr, func(dst []byte) ([]byte, error) { return appendQueryResponse(dst, &ans) })
}

// handleBatch answers many queries of one run/view in parallel. The batch
// workers record sibling spans under this request's root, so a traced
// batch shows its internal concurrency.
func (s *Server) handleBatch(ctx context.Context, tr *obs.Trace, w http.ResponseWriter, r *http.Request) {
	e := s.engineOr503(w, tr)
	if e == nil {
		return
	}
	var req batchRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, tr, err)
		return
	}
	if req.Run == "" || len(req.Data) == 0 {
		writeError(w, tr, fmt.Errorf("%w: run and a non-empty data list are required", errBadRequest))
		return
	}
	v, err := resolveView(e, req.Run, req.View, req.Relevant)
	if err != nil {
		writeError(w, tr, err)
		return
	}
	workers := req.Workers
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	if s.testHookBatchStarted != nil {
		s.testHookBatchStarted()
	}
	results, err := e.DeepAnswerBatch(ctx, req.Run, v, req.Data, workers)
	if err != nil {
		writeError(w, tr, err)
		return
	}
	var spans *obs.SpanNode
	if wantInlineTrace(r) {
		node := tr.Snapshot()
		spans = &node
	}
	writeAnswer(w, tr, func(dst []byte) ([]byte, error) {
		return appendBatchResponse(dst, tr.ID(), req.Run, results, spans)
	})
}

// runsResponse is the body of GET /v1/runs: the run list sorted by id
// plus an explicit count. The sort and count are load-bearing for the
// cluster router, whose scatter-gather merge needs stable, dedupable
// worker responses — field order here must stay in sync with the router's
// merged response so a fully-healthy cluster answer is byte-identical to
// a single node's.
type runsResponse struct {
	TraceID string              `json:"trace_id"`
	Count   int                 `json:"count"`
	Runs    []warehouse.RunInfo `json:"runs"`
}

// handleRuns lists the loaded runs, deterministically sorted by run id,
// from the warehouse's catalog: no run is materialized to be listed.
func (s *Server) handleRuns(_ context.Context, tr *obs.Trace, w http.ResponseWriter, _ *http.Request) {
	e := s.engineOr503(w, tr)
	if e == nil {
		return
	}
	runs := e.Warehouse().RunCatalog() // sorted by the warehouse
	writeJSON(w, http.StatusOK, runsResponse{TraceID: tr.ID(), Count: len(runs), Runs: runs})
}

// handleStats returns the warehouse statistics (catalog row counts, cache
// counters, and — when attached — the metrics snapshot).
func (s *Server) handleStats(_ context.Context, tr *obs.Trace, w http.ResponseWriter, _ *http.Request) {
	e := s.engineOr503(w, tr)
	if e == nil {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"trace_id": tr.ID(), "stats": e.Warehouse().Stats()})
}

// handleMetrics serves the Prometheus text exposition of the registry.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WritePrometheus(w, s.reg.Snapshot(), "zoom")
}

// handleSlowlog serves the slow-query ring, newest first.
func (s *Server) handleSlowlog(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"threshold_ns": s.cfg.SlowThreshold.Nanoseconds(),
		"entries":      s.slow.Entries(),
	})
}
