package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/edge"
	"repro/internal/obs"
	"repro/zoom/client"
)

// maxBufferedBody is the hard bound on a relayed answer. The router reads
// every worker answer whole before it commits a status, so an answer longer
// than this, or one of unstated length, is a 502 naming the bound: a client
// never gets a 200 followed by a truncated body. The largest answers of the
// benchmark's corpora are ~310 KB.
const maxBufferedBody = 4 << 20

// maxPooledRelay is the largest relay buffer returned to relayBufs, the
// same rule as the worker's encode buffers: it covers the largest answers
// of the benchmark's corpora (~310 KB) without letting one outsized answer
// pin megabytes per pooled buffer.
const maxPooledRelay = 1 << 20

// relayBufs holds the buffers worker answers are read into. A buffer goes
// back to the pool once its answer has been written: an http.ResponseWriter
// is an io.Writer, which must not retain what it is given, and the cache
// copies what it keeps.
var relayBufs = sync.Pool{New: func() any { return new([]byte) }}

// Config tunes a Router.
type Config struct {
	// Workers are shard base URLs in shard order, one replica per shard:
	// Workers[k] serves shard k of len(Workers). The order must match the
	// -n used by `zoom snapshot shard`; the ring places runs on indexes,
	// not URLs. Ignored when Shards is set.
	Workers []string
	// Shards groups worker base URLs into replica sets: Shards[k] lists
	// the replicas serving shard k, in preference order (the router
	// forwards to the first available replica and fails over to the
	// next). Every replica of shard k must hold the same shard-k
	// snapshot. Takes precedence over Workers.
	Shards [][]string
	// Replicas is the virtual-node count per shard on the placement ring
	// (0 = DefaultReplicas). Must match the value used to split the
	// snapshot. (Ring vnodes, not the replica sets above.)
	Replicas int
	// ForwardTimeout bounds each forwarding attempt of a /v1/query or
	// /v1/batch request (default 30s).
	ForwardTimeout time.Duration
	// GatherTimeout bounds each per-shard call of a scatter-gather and of
	// a health poll (default 5s).
	GatherTimeout time.Duration
	// Fanout bounds how many shards a scatter-gather or health sweep hits
	// concurrently (default 8).
	Fanout int
	// HealthInterval is the /readyz polling period (default 2s).
	HealthInterval time.Duration
	// BreakerThreshold is the consecutive forwarding failures that open a
	// replica's circuit (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit fails fast before the
	// next attempt is allowed through (default 5s). A successful health
	// poll closes the circuit early.
	BreakerCooldown time.Duration
	// HedgeDelay, when positive, launches a second attempt of a
	// run-addressed request on the shard's next available replica after
	// this delay; the first response wins and the loser is cancelled.
	// Pick a p99-ish value for the workload. Zero disables hedging (the
	// default) — it trades duplicate load for tail latency and only
	// helps when replicas exist.
	HedgeDelay time.Duration
	// CacheEntries bounds the router-side response cache (entry count).
	// Zero disables the cache (the default for embedded use; `zoom
	// router` enables it by flag). Entries are keyed on the full request
	// body and invalidated when the owning shard's worker generation
	// changes.
	CacheEntries int
	// CacheBytes bounds the cache's total retained bytes (0 selects
	// DefaultCacheBytes). Only meaningful when CacheEntries > 0. An answer
	// is kept only if it and its request fit CacheBytes/CacheEntries.
	CacheBytes int64
	// MaxIdleConns bounds the keep-alive pool per worker (default 32).
	MaxIdleConns int
	// Transport overrides the shared HTTP transport (tests, custom pools).
	Transport http.RoundTripper
	// SlowThreshold is the request duration at or above which a routed
	// request enters the router slowlog at /debug/slowlog, span tree
	// included. Zero selects edge.DefaultSlowThreshold; negative logs every
	// request (useful in tests and smoke scripts).
	SlowThreshold time.Duration
	// SlowLogSize bounds the router slowlog ring (default 128).
	SlowLogSize int
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Replicas <= 0 {
		out.Replicas = DefaultReplicas
	}
	if out.ForwardTimeout <= 0 {
		out.ForwardTimeout = 30 * time.Second
	}
	if out.GatherTimeout <= 0 {
		out.GatherTimeout = 5 * time.Second
	}
	if out.Fanout <= 0 {
		out.Fanout = 8
	}
	if out.HealthInterval <= 0 {
		out.HealthInterval = 2 * time.Second
	}
	if out.BreakerThreshold <= 0 {
		out.BreakerThreshold = 3
	}
	if out.BreakerCooldown <= 0 {
		out.BreakerCooldown = 5 * time.Second
	}
	if out.MaxIdleConns <= 0 {
		out.MaxIdleConns = 32
	}
	return out
}

// Router is a stateless scale-out front for N zoom shards, each served
// by a replica set of workers: it places run-addressed requests
// (/v1/query, /v1/batch) on the consistent-hash ring and forwards them
// to the shard's preferred replica over pooled keep-alive connections —
// failing over to the next replica on transport error or open breaker,
// optionally hedging slow requests — and answers the catalog endpoints
// (/v1/runs, /v1/stats) by bounded parallel scatter-gather with a
// deterministic merge. Per-replica circuit breakers and /readyz polling
// keep a dead worker from blacking out its shard while a sibling holds
// the same data, and an optional bounded response cache answers repeated
// queries without a hop, invalidated by the worker generation the health
// poll observes.
type Router struct {
	cfg    Config
	ring   *Ring
	shards []*shard
	httpc  *http.Client
	reg    *obs.Registry
	cache  *respCache
	edge   *edge.Edge // request boundary: trace ids, router.* metrics, slowlog

	forwards      *obs.Counter
	fwdErrors     *obs.Counter
	fastFails     *obs.Counter
	failovers     *obs.Counter
	hedges        *obs.Counter
	hedgeWins     *obs.Counter
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	cacheDeclined *obs.Counter
	cacheInvals   *obs.Counter
	copyErrors    *obs.Counter
	gathers       *obs.Counter
	partials      *obs.Counter
}

// New returns a router over cfg.Shards (or cfg.Workers as single-replica
// shards; at least one shard required), wired to reg (one is created
// when nil). Start its health loop with HealthLoop or let Serve do it.
func New(reg *obs.Registry, cfg Config) (*Router, error) {
	groups := cfg.Shards
	if len(groups) == 0 {
		for _, w := range cfg.Workers {
			groups = append(groups, []string{w})
		}
	}
	if len(groups) == 0 {
		return nil, errors.New("cluster: router needs at least one worker")
	}
	total := 0
	for k, g := range groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no replicas", k)
		}
		for _, base := range g {
			if base == "" {
				return nil, fmt.Errorf("cluster: shard %d has an empty replica address", k)
			}
		}
		total += len(g)
	}
	cfg = (&cfg).withDefaults()
	ring, err := NewRing(len(groups), cfg.Replicas)
	if err != nil {
		return nil, err
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	rt := cfg.Transport
	if rt == nil {
		rt = &http.Transport{
			MaxIdleConns:        cfg.MaxIdleConns * total,
			MaxIdleConnsPerHost: cfg.MaxIdleConns,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	r := &Router{
		cfg:           cfg,
		ring:          ring,
		httpc:         &http.Client{Transport: rt},
		reg:           reg,
		edge:          edge.New(reg, "router", cfg.SlowThreshold, cfg.SlowLogSize),
		forwards:      reg.Counter("router.forwards"),
		fwdErrors:     reg.Counter("router.forward_errors"),
		fastFails:     reg.Counter("router.fast_fails"),
		failovers:     reg.Counter("router.failovers"),
		hedges:        reg.Counter("router.hedges"),
		hedgeWins:     reg.Counter("router.hedge_wins"),
		cacheHits:     reg.Counter("router.cache_hits"),
		cacheMisses:   reg.Counter("router.cache_misses"),
		cacheDeclined: reg.Counter("router.cache_declined"),
		cacheInvals:   reg.Counter("router.cache_invalidations"),
		copyErrors:    reg.Counter("router.copy_errors"),
		gathers:       reg.Counter("router.gathers"),
		partials:      reg.Counter("router.gather_partial"),
	}
	if cfg.CacheEntries > 0 {
		r.cache = newRespCache(cfg.CacheEntries, cfg.CacheBytes)
	}
	for k, g := range groups {
		sh := &shard{
			index:         k,
			cacheHits:     reg.Counter(fmt.Sprintf("router.shard.%d.cache_hits", k)),
			cacheMisses:   reg.Counter(fmt.Sprintf("router.shard.%d.cache_misses", k)),
			cacheDeclined: reg.Counter(fmt.Sprintf("router.shard.%d.cache_declined", k)),
			failovers:     reg.Counter(fmt.Sprintf("router.shard.%d.failovers", k)),
			hedges:        reg.Counter(fmt.Sprintf("router.shard.%d.hedges", k)),
			hedgeWins:     reg.Counter(fmt.Sprintf("router.shard.%d.hedge_wins", k)),
		}
		for j, base := range g {
			prefix := fmt.Sprintf("router.shard.%d.replica.%d.", k, j)
			sh.replicas = append(sh.replicas, &replica{
				shard:    k,
				index:    j,
				base:     base,
				cl:       client.New(base, client.Options{Timeout: -1, Transport: rt}),
				up:       reg.Gauge(prefix + "up"),
				breaker:  reg.Gauge(prefix + "breaker_open"),
				pollNs:   reg.Gauge(prefix + "poll_ns"),
				attempts: reg.Counter(prefix + "attempts"),
				errors:   reg.Counter(prefix + "errors"),
			})
		}
		r.shards = append(r.shards, sh)
	}
	return r, nil
}

// Ring returns the router's placement ring.
func (rt *Router) Ring() *Ring { return rt.ring }

// Registry returns the router's metrics registry.
func (rt *Router) Registry() *obs.Registry { return rt.reg }

// Handler returns the router's route table.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/query", rt.edge.Wrap("POST /v1/query", rt.forward("/v1/query")))
	mux.Handle("POST /v1/batch", rt.edge.Wrap("POST /v1/batch", rt.forward("/v1/batch")))
	mux.Handle("GET /v1/runs", rt.edge.Wrap("GET /v1/runs", rt.handleRuns))
	mux.Handle("GET /v1/stats", rt.edge.Wrap("GET /v1/stats", rt.handleStats))
	mux.Handle("GET /v1/cluster/stats", rt.edge.Wrap("GET /v1/cluster/stats", rt.handleClusterStats))
	mux.HandleFunc("GET /v1/shards", rt.handleShards)
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	rt.edge.Mount(mux)
	return mux
}

// SlowLog returns the router's slow-request ring.
func (rt *Router) SlowLog() *obs.SlowLog { return rt.edge.SlowLog() }

// Serve runs the router on ln until ctx is cancelled, with the health
// loop polling in the background, then shuts down gracefully like the
// worker: the listener closes immediately, in-flight requests get up to
// drain to finish.
func (rt *Router) Serve(ctx context.Context, ln net.Listener, drain time.Duration) error {
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	go rt.HealthLoop(hctx)
	return edge.Serve(ctx, ln, rt.Handler(), drain)
}

// forward returns the handler for a run-addressed endpoint: peek at the
// run id, place it on the ring, and relay the request/response verbatim
// to/from the shard's replicas. The body passes through untouched in
// both directions — the cluster's answers are byte-identical to the
// worker's (and, by the differential suite, to a single node's) — and a
// cache hit writes the stored bytes as they are: an answer carries no
// trace id (that is in the X-Zoom-Trace-Id header the edge sets) and no
// timing. The one exception is ?trace=1 (never cacheable, since any query
// string bypasses the cache): the worker's inline span tree is spliced out
// of the body and grafted under the winning replica.attempt span, so the
// client gets ONE stitched tree covering both hops instead of the worker's
// fragment.
//
// Every answer is read whole into a pooled buffer before anything is
// committed to the client, so a worker that dies mid-body costs the client a
// well-formed 502, not a 200 with half a document. A worker states the
// length of what it sends; an answer that does not, or that states more than
// maxBufferedBody, is a 502 naming the bound. The cache copies out of that
// buffer the 200s it admits.
func (rt *Router) forward(path string) edge.Handler {
	return func(tr *obs.Trace, w http.ResponseWriter, r *http.Request) {
		body, ok := edge.ReadBody(w, r)
		if !ok {
			return
		}
		// The router only needs the run id for placement; everything else
		// in the body is the worker's to validate.
		var peek struct {
			Run string `json:"run"`
		}
		if jerr := json.Unmarshal(body, &peek); jerr != nil || peek.Run == "" {
			edge.WriteError(w, http.StatusBadRequest, "bad request: a JSON body with a run id is required")
			return
		}
		pick := tr.Root().StartChild("route.pick")
		idx := rt.ring.Place(peek.Run)
		sh := rt.shards[idx]
		pick.SetTag("run", peek.Run)
		pick.SetTag("shard", strconv.Itoa(idx))
		pick.End()

		// The epoch is read before the lookup/forward so a generation
		// change observed mid-flight invalidates conservatively. The
		// cache.lookup span is recorded in every configuration — its
		// outcome tag says which case this request was (disabled, bypass
		// for a query string, hit, miss), so a trace always answers "did
		// the cache see this?".
		epoch := sh.epoch.Load()
		cacheable := rt.cache != nil && r.URL.RawQuery == ""
		look := tr.Root().StartChild("cache.lookup")
		switch {
		case rt.cache == nil:
			look.SetTag("outcome", "disabled")
			look.End()
		case !cacheable:
			look.SetTag("outcome", "bypass")
			look.End()
		default:
			ent, stale := rt.cache.lookup(path, body, epoch)
			if stale {
				rt.cacheInvals.Inc()
			}
			if ent != nil {
				look.SetTag("outcome", "hit")
				look.End()
				rt.cacheHits.Inc()
				sh.cacheHits.Inc()
				if werr := edge.WriteBody(w, http.StatusOK, ent.contentType, ent.body); werr != nil {
					rt.copyError(tr, idx, werr)
				}
				return
			}
			look.SetTag("outcome", "miss")
			look.End()
			rt.cacheMisses.Inc()
			sh.cacheMisses.Inc()
		}

		cands := sh.candidates(time.Now())
		if len(cands) == 0 {
			rt.fastFails.Inc()
			edge.WriteError(w, http.StatusBadGateway, fmt.Sprintf("shard %d unavailable: %s", idx, sh.state(time.Now())))
			return
		}
		wantTrace := edge.WantInlineTrace(r)
		resp, rep, winSpan, release, err := rt.attempt(r.Context(), tr, sh, path, r.URL.RawQuery, body, cands, wantTrace)
		if err != nil {
			base := ""
			if rep != nil {
				base = rep.base
			}
			edge.WriteError(w, http.StatusBadGateway, fmt.Sprintf("shard %d (%s) forward failed: %v", idx, base, err))
			return
		}
		defer release()
		defer resp.Body.Close()
		rt.forwards.Inc()
		ct := resp.Header.Get("Content-Type")

		relay := tr.Root().StartChild("relay")
		defer relay.End()
		n := resp.ContentLength
		if n < 0 || n > maxBufferedBody {
			stated := "states no length"
			if n >= 0 {
				stated = fmt.Sprintf("is %d bytes", n)
			}
			edge.WriteError(w, http.StatusBadGateway, fmt.Sprintf(
				"shard %d replica %d (%s): answer %s; the router relays answers of stated length up to %d bytes",
				idx, rep.index, rep.base, stated, maxBufferedBody))
			return
		}
		bp := relayBufs.Get().(*[]byte)
		if int64(cap(*bp)) < n {
			*bp = make([]byte, n)
		}
		defer func() {
			if cap(*bp) <= maxPooledRelay {
				relayBufs.Put(bp)
			}
		}()
		data := (*bp)[:n]
		if _, rerr := io.ReadFull(resp.Body, data); rerr != nil {
			rt.copyError(tr, idx, rerr)
			edge.WriteError(w, http.StatusBadGateway, fmt.Sprintf(
				"shard %d replica %d (%s): response body cut short: %v", idx, rep.index, rep.base, rerr))
			return
		}
		if resp.StatusCode == http.StatusOK {
			if wantTrace {
				relay.End() // before the snapshot stitch takes
				data = rt.stitch(tr, winSpan, data)
			} else if cacheable {
				ent := cacheEntry{path: path, reqBody: body, epoch: epoch, contentType: ct, body: data}
				if rt.cache.store(ent) {
					relay.SetTag("cache", "stored")
				} else {
					relay.SetTag("cache", "declined")
					rt.cacheDeclined.Inc()
					sh.cacheDeclined.Inc()
				}
			}
		}
		if werr := edge.WriteBody(w, resp.StatusCode, ct, data); werr != nil {
			rt.copyError(tr, idx, werr)
		}
	}
}

// stitch splices the worker's inline span tree out of a traced response
// body and replaces it with the router's full tree, the worker's tree
// adopted under the winning attempt span. The body is otherwise relayed
// byte-for-byte: the worker's trace value is located as verbatim source
// bytes (json.RawMessage) and swapped in place, so field order and every
// other byte the worker wrote survive. On any decode surprise the body
// passes through unmodified — a stitching bug degrades to the worker's own
// trace, never to a corrupt response.
func (rt *Router) stitch(tr *obs.Trace, winSpan *obs.Span, data []byte) []byte {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		return data
	}
	raw, ok := doc["trace"]
	if !ok {
		return data
	}
	var node obs.SpanNode
	if err := json.Unmarshal(raw, &node); err != nil {
		return data
	}
	winSpan.Adopt(node)
	nb, err := json.Marshal(tr.Snapshot())
	if err != nil {
		return data
	}
	return bytes.Replace(data, raw, nb, 1)
}

// copyError counts a response-relay failure — the worker's body ended early
// or the client stopped reading — and names the trace in the log.
func (rt *Router) copyError(tr *obs.Trace, shard int, err error) {
	rt.copyErrors.Inc()
	log.Printf("zoom router: response copy failed: shard %d trace %s: %v", shard, tr.ID(), err)
}

// fwdResult is one replica attempt's outcome inside attempt.
type fwdResult struct {
	rep    *replica
	span   *obs.Span
	resp   *http.Response
	cancel context.CancelFunc
	err    error
	hedged bool
}

// attempt forwards body to the shard's candidate replicas: the preferred
// replica first, failing over to the next on transport error, and — when
// cfg.HedgeDelay is set — hedging with a second concurrent attempt on
// the next candidate once the delay elapses. The first successful
// response wins; losers are cancelled and drained. The returned release
// func ends the winner's request context and must be called after the
// response body has been consumed. Only transport-level failures feed
// the breaker and trigger failover; a worker that answers (any status)
// is alive and its response is relayed verbatim.
//
// Every launch records a replica.attempt span under the trace root,
// tagged with the replica address and how it ended (won / failed /
// cancelled), so a failover or hedge race reads directly off the tree.
// Each span also carries a span reference ("<traceid>.a<n>") that, on
// traced requests, travels to the worker in X-Zoom-Parent-Span; the
// worker tags its root with the same reference, so the stitched subtree
// names the exact attempt it answered even after the trees are merged.
func (rt *Router) attempt(parent context.Context, tr *obs.Trace, sh *shard, path, rawQuery string, body []byte, cands []*replica, wantTrace bool) (*http.Response, *replica, *obs.Span, func(), error) {
	results := make(chan fwdResult, len(cands))
	next, inflight, attemptSeq := 0, 0, 0
	launch := func(hedged bool) {
		rep := cands[next]
		next++
		inflight++
		ref := fmt.Sprintf("%s.a%d", tr.ID(), attemptSeq)
		attemptSeq++
		sp := tr.Root().StartChild("replica.attempt")
		sp.SetTag("addr", rep.base)
		sp.SetTag("replica", strconv.Itoa(rep.index))
		sp.SetTag("span", ref)
		if hedged {
			sp.SetTag("hedged", "true")
		}
		rep.attempts.Inc()
		actx, cancel := context.WithTimeout(parent, rt.cfg.ForwardTimeout)
		go func() {
			url := rep.base + path
			if rawQuery != "" {
				url += "?" + rawQuery
			}
			req, err := http.NewRequestWithContext(actx, http.MethodPost, url, bytes.NewReader(body))
			if err != nil {
				results <- fwdResult{rep: rep, span: sp, cancel: cancel, err: err, hedged: hedged}
				return
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(client.TraceIDHeader, tr.ID())
			if wantTrace {
				req.Header.Set(client.ParentSpanHeader, ref)
			}
			resp, err := rt.httpc.Do(req)
			results <- fwdResult{rep: rep, span: sp, resp: resp, cancel: cancel, err: err, hedged: hedged}
		}()
	}
	// drainLosers closes out attempts still in flight after a decision.
	drainLosers := func(n int) {
		if n <= 0 {
			return
		}
		go func() {
			for i := 0; i < n; i++ {
				lr := <-results
				lr.cancel()
				if lr.resp != nil {
					lr.resp.Body.Close()
				}
				lr.span.SetTag("outcome", "cancelled")
				lr.span.End()
			}
		}()
	}

	launch(false)
	var hedgeC <-chan time.Time
	if rt.cfg.HedgeDelay > 0 && len(cands) > 1 {
		t := time.NewTimer(rt.cfg.HedgeDelay)
		defer t.Stop()
		hedgeC = t.C
	}
	var lastErr error
	var lastRep *replica
	for inflight > 0 {
		select {
		case <-hedgeC:
			hedgeC = nil
			if next < len(cands) {
				rt.hedges.Inc()
				sh.hedges.Inc()
				launch(true)
			}
		case res := <-results:
			inflight--
			if res.err != nil {
				res.cancel()
				res.span.SetTag("outcome", "failed")
				res.span.SetTag("error", res.err.Error())
				res.span.End()
				res.rep.errors.Inc()
				if parent.Err() != nil {
					// The client went away (or the whole request timed
					// out): not the replica's fault — no breaker, no
					// failover cascade.
					drainLosers(inflight)
					return nil, res.rep, nil, nil, parent.Err()
				}
				res.rep.fail(int32(rt.cfg.BreakerThreshold), rt.cfg.BreakerCooldown)
				rt.fwdErrors.Inc()
				lastErr, lastRep = res.err, res.rep
				if inflight == 0 && next < len(cands) {
					rt.failovers.Inc()
					sh.failovers.Inc()
					launch(false)
				}
				continue
			}
			res.rep.ok()
			if res.hedged {
				rt.hedgeWins.Inc()
				sh.hedgeWins.Inc()
			}
			res.span.SetTag("outcome", "won")
			res.span.End()
			drainLosers(inflight)
			return res.resp, res.rep, res.span, res.cancel, nil
		}
	}
	return nil, lastRep, nil, nil, lastErr
}

// ShardError describes one shard's failure inside a partial scatter-
// gather answer or a fast 502.
type ShardError struct {
	Shard int    `json:"shard"`
	Addr  string `json:"addr"`
	Error string `json:"error"`
}

// gather calls fn once per shard with bounded concurrency and returns
// the per-shard results (nil where failed) plus the failures sorted by
// shard index. Within a shard, fn runs against the preferred available
// replica and fails over to the next on transport error; shards with no
// available replica are reported failed without a request. Only
// transport-level failures feed the breakers; a worker that answers
// (even with an error status) is alive. Acquiring a fan-out slot
// respects ctx, so a cancelled scatter-gather releases immediately and
// reports a context error for unvisited shards instead of blocking on
// the semaphore.
func (rt *Router) gather(ctx context.Context, fn func(context.Context, *client.Client) (any, error)) ([]any, []ShardError) {
	rt.gathers.Inc()
	results := make([]any, len(rt.shards))
	errs := make([]error, len(rt.shards))
	sem := make(chan struct{}, rt.cfg.Fanout)
	var wg sync.WaitGroup
	for i, sh := range rt.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				errs[i] = ctx.Err()
				return
			}
			defer func() { <-sem }()
			cands := sh.candidates(time.Now())
			if len(cands) == 0 {
				errs[i] = errors.New(sh.state(time.Now()))
				return
			}
			for _, rep := range cands {
				cctx, cancel := context.WithTimeout(ctx, rt.cfg.GatherTimeout)
				v, err := fn(cctx, rep.cl)
				cancel()
				if err != nil {
					errs[i] = err
					var ce *client.Error
					if errors.As(err, &ce) {
						// The worker answered; its error is the shard's
						// answer — no failover past a live worker.
						return
					}
					if ctx.Err() != nil {
						return
					}
					rep.fail(int32(rt.cfg.BreakerThreshold), rt.cfg.BreakerCooldown)
					continue
				}
				rep.ok()
				results[i], errs[i] = v, nil
				return
			}
		}(i, sh)
	}
	wg.Wait()
	var fails []ShardError
	for i, err := range errs {
		if err != nil {
			fails = append(fails, ShardError{Shard: i, Addr: rt.shards[i].replicas[0].base, Error: err.Error()})
		}
	}
	if len(fails) > 0 {
		rt.partials.Inc()
	}
	return results, fails
}

// routerRunsResponse is the merged GET /v1/runs body. The leading fields
// mirror the worker's runsResponse exactly (count, runs) so a
// fully-healthy cluster answer is byte-identical to a single node
// holding the same runs; the partial fields only appear when shards
// failed — degraded answers are flagged, never silently truncated.
type routerRunsResponse struct {
	Count        int              `json:"count"`
	Runs         []client.RunInfo `json:"runs"`
	Partial      bool             `json:"partial,omitempty"`
	FailedShards []ShardError     `json:"failed_shards,omitempty"`
}

// handleRuns scatter-gathers the run catalog and merges it
// deterministically: dedup by run id (first shard wins — shards are
// disjoint under a correct split, so this only matters for overlapping
// hand-built deployments), then sort by id.
func (rt *Router) handleRuns(_ *obs.Trace, w http.ResponseWriter, r *http.Request) {
	results, fails := rt.gather(r.Context(), func(ctx context.Context, cl *client.Client) (any, error) {
		return cl.Runs(ctx)
	})
	seen := make(map[string]bool)
	merged := make([]client.RunInfo, 0, 16)
	for _, v := range results {
		rr, ok := v.(*client.RunsResponse)
		if !ok || rr == nil {
			continue
		}
		for _, ri := range rr.Runs {
			if !seen[ri.ID] {
				seen[ri.ID] = true
				merged = append(merged, ri)
			}
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].ID < merged[j].ID })
	resp := routerRunsResponse{Count: len(merged), Runs: merged}
	if len(fails) > 0 {
		resp.Partial = true
		resp.FailedShards = fails
	}
	edge.WriteJSON(w, http.StatusOK, resp)
}

// shardStats is one shard's raw stats document inside the merged
// GET /v1/stats body.
type shardStats struct {
	Shard int             `json:"shard"`
	Addr  string          `json:"addr"`
	Stats json.RawMessage `json:"stats"`
}

// routerStatsResponse is the merged GET /v1/stats body: each shard's
// stats document verbatim, in shard order, plus the partial flag.
type routerStatsResponse struct {
	ShardsTotal  int          `json:"shards_total"`
	ShardsOK     int          `json:"shards_ok"`
	Shards       []shardStats `json:"shards"`
	Partial      bool         `json:"partial,omitempty"`
	FailedShards []ShardError `json:"failed_shards,omitempty"`
}

func (rt *Router) handleStats(_ *obs.Trace, w http.ResponseWriter, r *http.Request) {
	results, fails := rt.gather(r.Context(), func(ctx context.Context, cl *client.Client) (any, error) {
		return cl.Stats(ctx)
	})
	resp := routerStatsResponse{ShardsTotal: len(rt.shards)}
	for i, v := range results {
		sr, ok := v.(*client.StatsResponse)
		if !ok || sr == nil {
			continue
		}
		resp.ShardsOK++
		resp.Shards = append(resp.Shards, shardStats{Shard: i, Addr: rt.shards[i].replicas[0].base, Stats: sr.Stats})
	}
	if len(fails) > 0 {
		resp.Partial = true
		resp.FailedShards = fails
	}
	edge.WriteJSON(w, http.StatusOK, resp)
}

// clusterStatsResponse is the GET /v1/cluster/stats body: the router's
// own metrics snapshot, a merged cluster-wide snapshot (every worker's
// registry summed twice — once unprefixed into the totals, once under a
// shard.<k>. prefix that the Prometheus renderer folds into a shard
// label), and each worker's raw stats document for drill-down.
type clusterStatsResponse struct {
	ShardsTotal  int           `json:"shards_total"`
	ShardsOK     int           `json:"shards_ok"`
	Router       *obs.Snapshot `json:"router"`
	Cluster      *obs.Snapshot `json:"cluster"`
	Shards       []shardStats  `json:"shards"`
	Partial      bool          `json:"partial,omitempty"`
	FailedShards []ShardError  `json:"failed_shards,omitempty"`
}

// handleClusterStats scatter-gathers every shard's /v1/stats and merges
// the workers' metrics registries into one cluster-wide snapshot:
// counters and gauges sum, histograms merge bucket-wise with recomputed
// quantiles. One scrape of the router answers "how is the cluster doing"
// without visiting N workers.
func (rt *Router) handleClusterStats(_ *obs.Trace, w http.ResponseWriter, r *http.Request) {
	results, fails := rt.gather(r.Context(), func(ctx context.Context, cl *client.Client) (any, error) {
		return cl.Stats(ctx)
	})
	router := rt.reg.Snapshot()
	cluster := &obs.Snapshot{}
	resp := clusterStatsResponse{ShardsTotal: len(rt.shards), Router: &router, Cluster: cluster}
	for i, v := range results {
		sr, ok := v.(*client.StatsResponse)
		if !ok || sr == nil {
			continue
		}
		resp.ShardsOK++
		resp.Shards = append(resp.Shards, shardStats{Shard: i, Addr: rt.shards[i].replicas[0].base, Stats: sr.Stats})
		// The worker's stats document embeds its metrics snapshot under
		// the Go field name (warehouse.Stats has no json tags).
		var doc struct {
			Metrics *obs.Snapshot
		}
		if err := json.Unmarshal(sr.Stats, &doc); err != nil || doc.Metrics == nil {
			continue
		}
		obs.MergeInto(cluster, *doc.Metrics, "")
		obs.MergeInto(cluster, *doc.Metrics, fmt.Sprintf("shard.%d.", i))
	}
	if len(fails) > 0 {
		resp.Partial = true
		resp.FailedShards = fails
	}
	edge.WriteJSON(w, http.StatusOK, resp)
}

// replicaState is one replica's row inside a shardState. The last_poll
// fields mirror the health loop's most recent /readyz reading — latency,
// completion time, and error — so a flapping or slow replica is visible
// in /v1/shards between verdict flips.
type replicaState struct {
	Replica      int    `json:"replica"`
	Addr         string `json:"addr"`
	Ready        bool   `json:"ready"`
	State        string `json:"state,omitempty"` // why unavailable; empty when forwardable
	RunsLoaded   int    `json:"runs_loaded"`
	RunsTotal    int    `json:"runs_total"`
	Generation   int64  `json:"generation,omitempty"`
	LastPollNs   int64  `json:"last_poll_ns,omitempty"`
	LastPollUnix int64  `json:"last_poll_unix_ns,omitempty"`
	LastError    string `json:"last_error,omitempty"`
}

// shardState is one row of GET /v1/shards and GET /readyz: the router's
// current view of a shard's replica set.
type shardState struct {
	Shard    int            `json:"shard"`
	Ready    bool           `json:"ready"`
	State    string         `json:"state,omitempty"` // why unavailable; empty when forwardable
	Replicas []replicaState `json:"replicas"`
}

func (rt *Router) shardStates() []shardState {
	now := time.Now()
	out := make([]shardState, len(rt.shards))
	for i, sh := range rt.shards {
		st := shardState{
			Shard: i,
			Ready: sh.available(now),
			State: sh.state(now),
		}
		for j, rep := range sh.replicas {
			pollNs, pollAt, pollErr := rep.lastPoll()
			st.Replicas = append(st.Replicas, replicaState{
				Replica:      j,
				Addr:         rep.base,
				Ready:        rep.available(now),
				State:        rep.state(now),
				RunsLoaded:   int(rep.loaded.Load()),
				RunsTotal:    int(rep.total.Load()),
				Generation:   rep.gen.Load(),
				LastPollNs:   pollNs,
				LastPollUnix: pollAt,
				LastError:    pollErr,
			})
		}
		out[i] = st
	}
	return out
}

// handleShards reports the router's shard table from its current state,
// without touching the workers.
func (rt *Router) handleShards(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{
		"shards":   rt.shardStates(),
		"replicas": rt.cfg.Replicas,
	}
	if rt.cache != nil {
		body["cache_entries"] = rt.cache.Len()
	}
	edge.WriteJSON(w, http.StatusOK, body)
}

// handleReadyz polls every replica's /readyz live (also refreshing the
// health state) and answers 200 only when every shard has at least one
// ready replica — the signal a cluster smoke test or orchestrator waits
// on before sending traffic.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready := rt.checkAll(r.Context())
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	edge.WriteJSON(w, status, map[string]any{
		"ready":  ready,
		"shards": rt.shardStates(),
	})
}
