package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	zcluster "repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/server"
	"repro/internal/warehouse"
	"repro/zoom/client"
)

// span is one timed call, recorded by the benchmark around a public entry
// point of the system. Spans of one request share Req; Parent names the
// rung the call sits inside when the system runs whole.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanWindow names the spans a traced window records, one per request.
const spanWindow = "window.request"

// The rungs of the ladder, innermost first. Each is a public entry point
// that contains the one before it, so a rung's time minus the time of the
// rung inside it, for the same request, is the time spent in the layer
// between the two.
var rungs = []string{
	"warehouse.closure", // Warehouse.DeepProvenanceStrategyCtx
	"provenance.engine", // Engine.DeepProvenanceCtx and its siblings
	"server.handler",    // Server.Handler().ServeHTTP on a recorder
	"server.http",       // raw HTTP to the owning worker
	"cluster.router",    // raw HTTP to the router
	"client.query",      // the typed client against the router
}

// layers names what each rung adds to the rung inside it: the rows of the
// budget table.
var layers = []string{
	"warehouse.closure", // closure lookup or compute
	"provenance.project",
	"server.codec", // decode, view resolve, DTO, encode
	"server.transport",
	"cluster.route",
	"client.codec",
}

// ladderRequests caps how many tape requests each rung replays.
const ladderRequests = 2000

// selfTimes pairs the spans of each request across rungs and returns, per
// rung, the time the request spent there and not in the rung inside it, in
// microseconds. Only requests that every rung replayed are paired, so the
// self times of a request sum to its outermost span.
func selfTimes(spans []span) (self [][]float64, reqs []int) {
	rungOf := make(map[string]int, len(rungs))
	for i, name := range rungs {
		rungOf[name] = i
	}
	durs := make(map[int][]float64) // request -> duration per rung, NaN-free only when complete
	seen := make(map[int]int)
	for _, s := range spans {
		k, ok := rungOf[s.Name]
		if !ok {
			continue
		}
		if durs[s.Req] == nil {
			durs[s.Req] = make([]float64, len(rungs))
		}
		durs[s.Req][k] = float64(s.End-s.Start) / 1e3
		seen[s.Req]++
	}
	self = make([][]float64, len(rungs))
	for req := 0; seen[req] == len(rungs); req++ { // requests are replayed in order from 0
		d := durs[req]
		reqs = append(reqs, req)
		for k := range rungs {
			inner := 0.0
			if k > 0 {
				inner = d[k-1]
			}
			self[k] = append(self[k], d[k]-inner)
		}
	}
	return self, reqs
}

// replay is the requests a ladder plays: the first ladderRequests of a
// tape, flattened in unit order.
type replay struct {
	t    *tape
	keys []int32
	// first[i] reports that no earlier request of the replay asked for the
	// same (run, data): its closure is computed, not found.
	first []bool
	// fresh[i] reports that no earlier request had the same key: it cannot
	// be answered from the router's cache.
	fresh []bool
}

func newReplay(t *tape) *replay {
	rp := &replay{t: t}
	seenKey := make(map[int32]bool)
	seenData := make(map[string]bool)
	for _, u := range t.units {
		for _, k := range u {
			if len(rp.keys) == ladderRequests {
				return rp
			}
			q := &t.keys[k]
			rp.keys = append(rp.keys, k)
			rp.fresh = append(rp.fresh, !seenKey[k])
			rp.first = append(rp.first, !seenData[q.Run+"\x00"+q.Data])
			seenKey[k] = true
			seenData[q.Run+"\x00"+q.Data] = true
		}
	}
	return rp
}

// recorder collects spans against one clock.
type recorder struct {
	t0    time.Time
	spans []span
}

func (rc *recorder) add(name string, req int, start, end time.Time) {
	parent := ""
	for i, r := range rungs[:len(rungs)-1] {
		if r == name {
			parent = rungs[i+1]
		}
	}
	rc.spans = append(rc.spans, span{Name: name, Req: req, Parent: parent,
		Start: start.Sub(rc.t0).Nanoseconds(), End: end.Sub(rc.t0).Nanoseconds()})
}

// playBudget is the time the passes of a ladder may spend replaying. Only
// replaying counts against it, not booting children, and what a cheap pass
// leaves goes to the passes after it.
type playBudget struct {
	left   time.Duration
	passes int // still to come
}

// play calls fn for each request of the replay, in order, until all are
// done or the pass has used its share of the budget, and records one span
// per call. A pass cut short is not an error: selfTimes pairs only the
// requests every rung reached. After each call, and outside its span, play
// calls again when that is not nil.
func (rc *recorder) play(rung string, rp *replay, pb *playBudget, fn, again func(i int, q *client.QueryRequest) error) error {
	began := time.Now()
	deadline := began.Add(max(pb.left, 0) / time.Duration(pb.passes))
	pb.passes--
	defer func() { pb.left -= time.Since(began) }()
	for i, k := range rp.keys {
		if i > 0 && time.Now().After(deadline) {
			return nil
		}
		q := &rp.t.keys[k]
		start := time.Now()
		err := fn(i, q)
		end := time.Now()
		if err == nil && again != nil {
			err = again(i, q)
		}
		if err != nil {
			return fmt.Errorf("%s: request %d (%+v): %w", rung, i, *q, err)
		}
		rc.add(rung, i, start, end)
	}
	return nil
}

// isDeep reports whether a request asks for deep provenance, the default
// kind.
func isDeep(q *client.QueryRequest) bool { return q.Kind == "" || q.Kind == "deep" }

// inProcess holds what rungs 1 to 3 need: the whole corpus in one
// warehouse, with nothing cached.
type inProcess struct {
	wh *warehouse.Warehouse
	or *oracle // resolves views; its engine is not the one timed
}

// closure is rung 1: the warehouse call the engine makes for the request.
func (ip *inProcess) closure(q *client.QueryRequest) (size int, err error) {
	switch q.Kind {
	case "", "deep":
		c, _, err := ip.wh.DeepProvenanceStrategyCtx(context.Background(), q.Run, q.Data, false, warehouse.StrategyAuto)
		if err != nil {
			return 0, err
		}
		return c.Size(), nil
	case "derived":
		c, err := ip.wh.DeepDerivation(q.Run, q.Data)
		if err != nil {
			return 0, err
		}
		return c.Size(), nil
	default:
		_, _, err := ip.wh.ImmediateProvenance(q.Run, q.Data)
		return 0, err
	}
}

// engine is rung 2: the engine call the server makes, the view resolved
// beforehand.
func (ip *inProcess) engine(eng *provenance.Engine, q *client.QueryRequest) (tuples int, err error) {
	v, err := ip.or.view(q)
	if err != nil {
		return 0, err
	}
	switch q.Kind {
	case "", "deep":
		res, err := eng.DeepProvenanceCtx(context.Background(), q.Run, v, q.Data)
		if err != nil {
			return 0, err
		}
		return res.Tuples(), nil
	case "derived":
		res, err := eng.DeepDerivation(q.Run, v, q.Data)
		if err != nil {
			return 0, err
		}
		return res.Tuples(), nil
	default:
		_, err := eng.ImmediateProvenance(q.Run, v, q.Data)
		return 0, err
	}
}

// ladderResult is what a ladder measured.
type ladderResult struct {
	spans  []span
	played int         // requests every rung replayed
	self   [][]float64 // per rung, per paired request, microseconds

	closureTuples, resultTuples int64
	closureHitUS, projectUS     []float64 // rungs 1 and 2 called again with the closure cached
}

// runLadder replays the start of a tape once per rung, each time from a
// cold state: the warehouse's closure cache is reset and a new engine and
// server are made in process, and new children are booted out of process.
// One client plays every rung, for its share of the budget at most. The
// children are warmed up like a window's, unless the replay is itself the
// first queries of the runs.
func runLadder(ctx context.Context, e *env, snapshot string, full *warehouse.Warehouse, c *corpus, rp *replay, warmFirst bool, budget time.Duration) (*ladderResult, error) {
	rc := &recorder{t0: time.Now()}
	pb := &playBudget{left: budget, passes: len(rungs)}
	ip := &inProcess{wh: full, or: newOracle(full)}
	res := &ladderResult{}

	// Rung 1. Each call is made a second time straight away, when the
	// closure is surely still cached: that is the cost of a hit.
	full.ResetCache()
	sizes := make([]int, len(rp.keys))
	if err := rc.play(rungs[0], rp, pb, func(i int, q *client.QueryRequest) (err error) {
		sizes[i], err = ip.closure(q)
		return err
	}, func(_ int, q *client.QueryRequest) error {
		d, err := timed(func() error { _, err := ip.closure(q); return err })
		if isDeep(q) {
			res.closureHitUS = append(res.closureHitUS, d)
		}
		return err
	}); err != nil {
		return nil, err
	}

	// Rung 2. The second call finds closure and mapping cached: what is
	// left is the projection.
	full.ResetCache()
	eng := provenance.NewEngine(full)
	tuples := make([]int, len(rp.keys))
	if err := rc.play(rungs[1], rp, pb, func(i int, q *client.QueryRequest) (err error) {
		tuples[i], err = ip.engine(eng, q)
		return err
	}, func(_ int, q *client.QueryRequest) error {
		d, err := timed(func() error { _, err := ip.engine(eng, q); return err })
		res.projectUS = append(res.projectUS, d)
		return err
	}); err != nil {
		return nil, err
	}

	// Rung 3: the worker's handler, without a socket.
	full.ResetCache()
	srv, err := server.New(obs.NewRegistry(), server.Config{})
	if err != nil {
		return nil, fmt.Errorf("ladder: in-process server: %w", err)
	}
	srv.SetEngine(provenance.NewEngine(full))
	h := srv.Handler()
	if err := rc.play(rungs[2], rp, pb, func(i int, _ *client.QueryRequest) error {
		req := httptest.NewRequest("POST", queryPath, bytes.NewReader(rp.t.body[rp.keys[i]]))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			return fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		return nil
	}, nil); err != nil {
		return nil, err
	}
	full.ResetCache()

	// Rungs 4 to 6, each against children that have served nothing but
	// warm-up.
	ring, err := zcluster.NewRing(2, 0)
	if err != nil {
		return nil, fmt.Errorf("ladder: ring: %w", err)
	}
	warmup, err := warmTape(c)
	if err != nil {
		return nil, err
	}
	outer := func(rung string, fn func(cl *cluster) func(i int, q *client.QueryRequest) error) error {
		cl, err := bootCluster(ctx, e.zoomBin, snapshot, e.sut)
		if err != nil {
			return fmt.Errorf("ladder %s: %w", rung, err)
		}
		defer cl.kill()
		if warmFirst {
			if lr := drive(cl.ctx, cl.rurl, warmup, 1, time.Hour, oracleEvery, false); failures(lr) > 0 {
				return fmt.Errorf("ladder %s: %d warm-up queries failed", rung, failures(lr))
			}
		}
		if err := rc.play(rung, rp, pb, fn(cl), nil); err != nil {
			return err
		}
		if err := cl.failure(); err != nil {
			return err
		}
		return cl.stop()
	}
	rawDo := func(c *conn, i int) error {
		r, err := c.do(rp.t.wire[rp.keys[i]], nil)
		if err == nil && !r.ok() {
			err = fmt.Errorf("status %d, %d body bytes, traced=%v", r.status, r.body, r.traced)
		}
		return err
	}
	if err := outer(rungs[3], func(cl *cluster) func(int, *client.QueryRequest) error {
		conns := [2]*conn{newConn(cl.wurl[0]), newConn(cl.wurl[1])}
		return func(i int, q *client.QueryRequest) error { return rawDo(conns[ring.Place(q.Run)], i) }
	}); err != nil {
		return nil, err
	}
	if err := outer(rungs[4], func(cl *cluster) func(int, *client.QueryRequest) error {
		c := newConn(cl.rurl)
		return func(i int, _ *client.QueryRequest) error { return rawDo(c, i) }
	}); err != nil {
		return nil, err
	}
	if err := outer(rungs[5], func(cl *cluster) func(int, *client.QueryRequest) error {
		tc := client.New(cl.rurl, client.Options{})
		return func(_ int, q *client.QueryRequest) error {
			_, err := tc.Query(ctx, *q)
			return err
		}
	}); err != nil {
		return nil, err
	}

	res.spans = rc.spans
	var reqs []int
	res.self, reqs = selfTimes(rc.spans)
	res.played = len(reqs)
	if res.played == 0 {
		return nil, fmt.Errorf("ladder: no request was replayed on every rung within %s", budget)
	}
	for _, i := range reqs {
		if isDeep(&rp.t.keys[rp.keys[i]]) {
			res.closureTuples += int64(sizes[i])
			res.resultTuples += int64(tuples[i])
		}
	}
	return res, nil
}

// failures counts the requests of a window that were not answered: those
// that failed below HTTP and those answered with anything but a traced,
// non-empty 200.
func failures(lr loadResult) int {
	n := 0
	for _, s := range lr.samples {
		if !s.ok {
			n++
		}
	}
	return n
}
