// Package server is the HTTP face of the provenance system: a JSON query
// API over the engine (deep, immediate, derived, and batch provenance),
// plus the operational surface a long-running service needs — Prometheus
// metrics, expvar, pprof, health/readiness probes, a slow-query log, and
// per-request trace ids.
//
// Every API request runs under an obs.Trace: the request edge (package edge,
// shared with the router) creates the trace at the boundary, the engine and
// warehouse record their stages as spans (query.lookup, closure.compute /
// closure.shared-wait, query.project, batch.query <id>), and the finished
// tree is sent in the X-Zoom-Trace response header with ?trace=1, named by
// the X-Zoom-Trace-Id header, and kept in the slow log for requests over the
// threshold. The trace id, the stage timings and the closure-cache outcome
// live there and not in the body, so an answer is the same bytes however
// often, by whichever tier, and traced or not, it is asked. The server is
// usable before its warehouse finishes loading: /healthz answers at once,
// /readyz and the API answer 503 until SetEngine installs a loaded engine.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/warehouse"
	"repro/zoom/client"
)

// Config tunes a Server.
type Config struct {
	// SlowThreshold is the request duration at or above which a request
	// enters the slow log. Zero selects edge.DefaultSlowThreshold; negative
	// logs every request (useful in tests).
	SlowThreshold time.Duration
	// ExpvarName, when non-empty, publishes the registry under this name
	// in the process-global expvar table (served at /debug/vars). New
	// fails if the name is already taken — a second server in the same
	// process must pick its own name or pass "".
	ExpvarName string
}

// Server serves provenance queries over HTTP. Construct with New, install
// an engine with SetEngine (possibly after the handler is already
// serving), and mount Handler.
type Server struct {
	reg  *obs.Registry
	edge *edge.Edge // request boundary: trace ids, http.* metrics, slow log

	engine atomic.Pointer[provenance.Engine]

	// Load progress, reported by /readyz while the warehouse is loading.
	// SetLoadProgress is the warehouse loader's LoadOptions.Progress hook.
	runsLoaded atomic.Int64
	runsTotal  atomic.Int64

	// generation is an opaque warehouse generation reported on /readyz and
	// every answer: seeded from the wall clock at construction (so two
	// process incarnations never share a value) and bumped on every
	// SetEngine. A router invalidates its cached answers when it changes.
	generation atomic.Int64

	ready *obs.Gauge

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
	if cfg.ExpvarName != "" {
		if err := reg.Publish(cfg.ExpvarName); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	s := &Server{
		reg:   reg,
		edge:  edge.New(reg, "http", cfg.SlowThreshold),
		ready: reg.Gauge("server.ready"),
	}
	s.generation.Store(time.Now().UnixNano())
	return s, nil
}

// SetEngine installs the engine and flips the server ready. It may be
// called while the handler is serving — the warehouse typically loads in
// the background after the listener is already up. The views the server
// resolves are memoized by the engine's warehouse, so they go with it.
func (s *Server) SetEngine(e *provenance.Engine) {
	s.engine.Store(e)
	s.generation.Add(1)
	if e != nil {
		s.ready.Set(1)
	} else {
		s.ready.Set(0)
	}
}

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
func (s *Server) SlowLog() *obs.SlowLog { return s.edge.SlowLog() }

// Handler returns the full route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/query", s.edge.Wrap("POST /v1/query", s.handleQuery))
	mux.Handle("POST /v1/batch", s.edge.Wrap("POST /v1/batch", s.handleBatch))
	mux.Handle("GET /v1/runs", s.edge.Wrap("GET /v1/runs", s.handleRuns))
	mux.Handle("GET /v1/stats", s.edge.Wrap("GET /v1/stats", s.handleStats))
	s.edge.Mount(mux)
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		loaded, total := s.LoadProgress()
		body := readyzBody{Ready: s.Ready(), RunsLoaded: loaded, RunsTotal: total, Generation: s.generation.Load()}
		status := http.StatusOK
		if !body.Ready {
			status = http.StatusServiceUnavailable
		}
		edge.WriteJSON(w, status, body)
	})
	return mux
}

// Serve runs the server on ln until ctx is cancelled, then shuts down
// gracefully: the listener closes immediately, in-flight requests get up
// to drain to finish. It returns nil after a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener, drain time.Duration) error {
	return edge.Serve(ctx, ln, s.Handler(), drain)
}

// writeAnswer runs an answer encoder over a pooled buffer and writes what
// it produced. The buffer goes back to the pool once the ResponseWriter —
// which copies, never retains — has taken the bytes.
func writeAnswer(w http.ResponseWriter, encode func(dst []byte) []byte) {
	bp := bufPool.Get().(*[]byte)
	body := encode((*bp)[:0])
	_ = edge.WriteBody(w, http.StatusOK, edge.ContentJSON, body)
	if cap(body) <= maxPooledBuf {
		*bp = body
		bufPool.Put(bp)
	}
}

// writeError maps engine/warehouse errors onto HTTP statuses: unknown
// names are the client's 404s, malformed requests 400s, everything else a
// 500.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, warehouse.ErrUnknownRun),
		errors.Is(err, warehouse.ErrUnknownData),
		errors.Is(err, warehouse.ErrUnknownSpec),
		errors.Is(err, warehouse.ErrUnknownView):
		status = http.StatusNotFound
	case errors.Is(err, errBadRequest),
		errors.Is(err, provenance.ErrForeignView),
		errors.Is(err, composite.ErrViewMismatch):
		status = http.StatusBadRequest
	}
	edge.WriteError(w, status, err.Error())
}

// errBadRequest tags client errors produced by the server itself.
var errBadRequest = errors.New("bad request")

// engineOr503 returns the installed engine, or answers 503 and returns nil
// while the warehouse is still loading. The answer names the engine's
// generation in client.GenerationHeader. It is read first: SetEngine stores
// the engine before it bumps the generation, so an answer never names a
// newer generation than the engine that computed it.
func (s *Server) engineOr503(w http.ResponseWriter) *provenance.Engine {
	gen := s.generation.Load()
	e := s.engine.Load()
	if e == nil {
		edge.WriteError(w, http.StatusServiceUnavailable, "warehouse loading, not ready")
	} else {
		w.Header().Set(client.GenerationHeader, strconv.FormatInt(gen, 10))
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
// run under one view, answered in order.
type batchRequest struct {
	Run      string   `json:"run"`
	Data     []string `json:"data"`
	View     string   `json:"view,omitempty"`
	Relevant []string `json:"relevant,omitempty"`
}

// decodeBody parses a bounded JSON request body, rejecting unknown fields
// so typos fail loudly. When it cannot, it has answered and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, ok := edge.ReadBody(w, r)
	if !ok {
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, fmt.Errorf("%w: %v", errBadRequest, err))
		return false
	}
	return true
}

// resolveView asks the warehouse for the view a request selects
// (Warehouse.ResolveView). A request naming both a view and a relevant
// list, or an invalid relevant list, is the client's error.
func resolveView(e *provenance.Engine, runID, viewName string, relevant []string) (*core.UserView, error) {
	if viewName != "" && len(relevant) > 0 {
		return nil, fmt.Errorf("%w: view and relevant are mutually exclusive", errBadRequest)
	}
	v, err := e.Warehouse().ResolveView(runID, viewName, relevant)
	if errors.Is(err, core.ErrBadRelevant) {
		return nil, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	return v, err
}

// handleQuery answers one provenance query.
func (s *Server) handleQuery(tr *obs.Trace, w http.ResponseWriter, r *http.Request) {
	e := s.engineOr503(w)
	if e == nil {
		return
	}
	var req queryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Run == "" || req.Data == "" {
		writeError(w, fmt.Errorf("%w: run and data are required", errBadRequest))
		return
	}
	v, err := resolveView(e, req.Run, req.View, req.Relevant)
	if err != nil {
		writeError(w, err)
		return
	}
	ctx := tr.Context(r.Context())
	ans := queryAnswer{run: req.Run, data: req.Data}
	switch req.Kind {
	case "", "deep":
		ans.kind = "deep"
		ans.result, err = e.DeepAnswerCtx(ctx, req.Run, v, req.Data)
	case "immediate":
		ans.kind = "immediate"
		ans.px, ans.ord, err = e.ImmediateAnswerCtx(ctx, req.Run, v, req.Data)
	case "derived":
		ans.kind = "derived"
		_, sp := obs.StartSpan(ctx, "query.derived")
		ans.result, err = e.DerivationAnswer(req.Run, v, req.Data)
		sp.End()
	default:
		err = fmt.Errorf("%w: unknown kind %q (deep, immediate, derived)", errBadRequest, req.Kind)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeAnswer(w, func(dst []byte) []byte { return appendQueryResponse(dst, &ans) })
}

// handleBatch answers many queries of one run/view, one after another on
// the request's goroutine. Each member query records a sibling span under
// this request's root, so a traced batch shows which one was slow.
func (s *Server) handleBatch(tr *obs.Trace, w http.ResponseWriter, r *http.Request) {
	e := s.engineOr503(w)
	if e == nil {
		return
	}
	var req batchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Run == "" || len(req.Data) == 0 {
		writeError(w, fmt.Errorf("%w: run and a non-empty data list are required", errBadRequest))
		return
	}
	v, err := resolveView(e, req.Run, req.View, req.Relevant)
	if err != nil {
		writeError(w, err)
		return
	}
	if s.testHookBatchStarted != nil {
		s.testHookBatchStarted()
	}
	results, err := e.DeepAnswerBatch(tr.Context(r.Context()), req.Run, v, req.Data)
	if err != nil {
		writeError(w, err)
		return
	}
	writeAnswer(w, func(dst []byte) []byte { return appendBatchResponse(dst, req.Run, results) })
}

// runsResponse is the body of GET /v1/runs: the run list sorted by id
// plus an explicit count. The sort and count are load-bearing for the
// cluster router, whose scatter-gather merge needs stable, dedupable
// worker responses — field order here must stay in sync with the router's
// merged response so a fully-healthy cluster answer is byte-identical to
// a single node's.
type runsResponse struct {
	Count int                 `json:"count"`
	Runs  []warehouse.RunInfo `json:"runs"`
}

// handleRuns lists the loaded runs, deterministically sorted by run id,
// from the warehouse's catalog: no run is materialized to be listed.
func (s *Server) handleRuns(_ *obs.Trace, w http.ResponseWriter, _ *http.Request) {
	e := s.engineOr503(w)
	if e == nil {
		return
	}
	runs := e.Warehouse().RunCatalog() // sorted by the warehouse
	edge.WriteJSON(w, http.StatusOK, runsResponse{Count: len(runs), Runs: runs})
}

// handleStats returns the warehouse statistics (catalog row counts, cache
// counters, what the memos hold, and — when attached — the metrics
// snapshot).
func (s *Server) handleStats(_ *obs.Trace, w http.ResponseWriter, _ *http.Request) {
	e := s.engineOr503(w)
	if e == nil {
		return
	}
	edge.WriteJSON(w, http.StatusOK, map[string]any{"stats": e.Warehouse().Stats()})
}
