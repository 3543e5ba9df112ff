package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"
)

// windowSlices is how many equal parts a window is cut into to show how far a
// metric moves within one run.
const windowSlices = 5

// leadShare sets the lead-in of a window: a fifth of the window's length,
// played before it and not measured.
const leadShare = 5

// maxSetups caps how often a run sets up before its window.
const maxSetups = 9

// probeSessions is how many view-switch sessions the switch probe plays on
// a workload that is not view-switch itself.
const probeSessions = 200

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Metrics   map[string]float64 `json:"metrics"`
	Spreads   map[string]spread  `json:"spreads,omitempty"`
	Budget    []budgetRow        `json:"budget,omitempty"`
	Spans     []span             `json:"-"` // the ladder's, written to a file of their own
	Notes     []string           `json:"notes,omitempty"`
}

// budgetRow is one layer of the latency budget of a routed query.
type budgetRow struct {
	Layer string  `json:"layer"`
	P50US float64 `json:"p50_us"`
	P95US float64 `json:"p95_us"`
	Share float64 `json:"share"`
}

type runOpts struct {
	seed    int64
	seconds float64
	traced  bool
	setups  int // complete set-ups before the window; setup_s is their median
}

// acc gathers what the set-ups of one run measured.
type acc struct {
	setupS, ingestMBs, saveMBs, readyMS, workerReadyMS, gatherMS, firstTouchMS []float64
	snapshotAmp                                                                float64
	shardBytes                                                                 int64
}

func (a *acc) add(s *setup) {
	mb := float64(s.c.logBytes) / 1e6
	a.setupS = append(a.setupS, s.total.Seconds())
	a.ingestMBs = append(a.ingestMBs, mb/s.ingest.Seconds())
	a.saveMBs = append(a.saveMBs, float64(s.v3Bytes)/1e6/s.save.Seconds())
	a.readyMS = append(a.readyMS, ms(s.cl.ready))
	a.workerReadyMS = append(a.workerReadyMS, ms(s.cl.workerReady))
	a.gatherMS = append(a.gatherMS, ms(s.gather))
	for _, sm := range s.warm.samples {
		a.firstTouchMS = append(a.firstTouchMS, ms(sm.lat))
	}
	a.snapshotAmp = float64(s.shardBytes) / float64(s.c.logBytes)
	a.shardBytes = s.shardBytes
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// window is what one measured window cost and counted. Its fields add, so
// the set-up cycles of ingest-restart sum into one window.
type window struct {
	lr                   loadResult
	routerCPU, workerCPU int64 // microseconds
	selfCPU              int64
	routerHWM, workerHWM int64              // bytes; the largest seen
	router               map[string]float64 // router counters, as deltas
	closure              closureCounters    // worker closure-cache counters, as deltas
}

// closureCounters is the part of a worker's /v1/stats the benchmark reads.
type closureCounters struct {
	Hits, Misses, SharedWaits, Computes, Evictions int64
	LabelHits                                      int64
}

// plus returns c + sign*d, field by field.
func (c closureCounters) plus(d closureCounters, sign int64) closureCounters {
	return closureCounters{Hits: c.Hits + sign*d.Hits, Misses: c.Misses + sign*d.Misses,
		SharedWaits: c.SharedWaits + sign*d.SharedWaits, Computes: c.Computes + sign*d.Computes,
		Evictions: c.Evictions + sign*d.Evictions, LabelHits: c.LabelHits + sign*d.LabelHits}
}

// routerCounters are the router's series the benchmark reads from
// /metrics. All but the cache's are reported under the same name.
var routerCounters = []string{"cache_hits", "cache_misses", "forwards", "forward_errors", "failovers", "fast_fails", "copy_errors"}

func (s *setup) scrape() (map[string]float64, closureCounters, error) {
	var cc closureCounters
	text, err := get(s.cl.rurl, "/metrics")
	if err != nil {
		return nil, cc, err
	}
	series, err := parseProm(text)
	if err != nil {
		return nil, cc, fmt.Errorf("router /metrics: %w", err)
	}
	out := make(map[string]float64, len(routerCounters))
	for _, name := range routerCounters {
		v, ok := series["zoom_router_"+name]
		if !ok {
			return nil, cc, fmt.Errorf("router /metrics has no series zoom_router_%s", name)
		}
		out[name] = v
	}
	for _, w := range s.cl.wurl {
		body, err := get(w, "/v1/stats")
		if err != nil {
			return nil, cc, err
		}
		var doc struct {
			Stats struct {
				Cache  closureCounters
				Labels struct{ Hits int64 }
			} `json:"stats"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return nil, cc, fmt.Errorf("worker /v1/stats: %w", err)
		}
		doc.Stats.Cache.LabelHits = doc.Stats.Labels.Hits
		cc = cc.plus(doc.Stats.Cache, 1)
	}
	return out, cc, nil
}

// reading is the children's counters and costs at one moment.
type reading struct {
	usage
	self    int64
	router  map[string]float64
	closure closureCounters
}

func (s *setup) read() (r reading, err error) {
	if r.usage, err = s.usage(); err != nil {
		return r, err
	}
	if r.self, err = selfCPU(); err != nil {
		return r, err
	}
	r.router, r.closure, err = s.scrape()
	return r, err
}

// measure plays a tape against the set-up's router for a lead-in and then
// a window, and records what the window cost the children and the
// benchmark itself. The lead-in is traffic like the window's that is not
// measured: it lets heaps and caches reach the state the window then holds.
func (s *setup) measure(t *tape, clients int, lead, length time.Duration, spans bool) (*window, error) {
	ctx, cancel := context.WithCancel(s.cl.ctx)
	defer cancel()
	done := make(chan loadResult, 1)
	began := time.Now()
	go func() { done <- drive(ctx, s.cl.rurl, t, clients, lead+length, oracleEvery, spans) }()
	var lr loadResult
	running := true
	select {
	case lr = <-done: // the tape ran out inside the lead-in
		running = false
	case <-time.After(lead):
	}
	cut := time.Since(began)
	r0, err := s.read()
	if running {
		if err != nil {
			cancel()
		}
		lr = <-done
	}
	if err != nil {
		return nil, err
	}
	if err := s.cl.failure(); err != nil {
		return nil, err
	}
	r1, err := s.read()
	if err != nil {
		return nil, err
	}

	w := &window{routerCPU: r1.routerCPU - r0.routerCPU, workerCPU: r1.workerCPU - r0.workerCPU,
		selfCPU: r1.self - r0.self, routerHWM: r1.routerHWM, workerHWM: r1.workerHWM,
		router: make(map[string]float64, len(r1.router))}
	for k, v := range r1.router {
		w.router[k] = v - r0.router[k]
	}
	w.closure = r1.closure.plus(r0.closure, -1)
	w.lr = loadResult{elapsed: lr.elapsed - cut, kept: lr.kept, spans: lr.spans}
	for _, sm := range lr.samples {
		// A request that failed in the lead-in is still a failed request.
		if sm.at >= cut || !sm.ok {
			sm.at = max(sm.at-cut, 0)
			w.lr.samples = append(w.lr.samples, sm)
		}
	}
	if len(w.lr.samples) == 0 {
		return nil, fmt.Errorf("the tape of %d requests ran out within the %s lead-in", t.requests(), lead)
	}
	return w, nil
}

// clients is how many connections a closed loop drives: one per processor.
func (e *env) clients() int { return len(e.cpus) }

// run performs one run of a workload.
func (e *env) run(ctx context.Context, wl *workload, o runOpts) (res *result, err error) {
	res = &result{Workload: wl.name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced,
		Metrics: make(map[string]float64), Spreads: make(map[string]spread)}
	a := &acc{}
	var s *setup
	// Where the window is set-ups, their first queries are its requests,
	// and every one of them is checked; elsewhere they are warm-up.
	keepEvery := oracleEvery
	if wl.tape == nil {
		keepEvery = 1
	}
	defer func() {
		if err != nil && s != nil {
			s.cl.kill()
		}
	}()
	next := func() error {
		if s != nil {
			if err := s.tearDown(); err != nil {
				return err
			}
		}
		if s, err = e.setUp(ctx, wl.corpus, keepEvery); err != nil {
			return err
		}
		a.add(s)
		return nil
	}
	if err := e.isolate(wl.rate > 0); err != nil {
		return nil, err
	}
	// setup_s is a median over at least o.setups set-ups. Where one takes
	// a fraction of a second its time is all jitter, so a workload with a
	// small corpus sets up more often, for two seconds in all.
	// A workload whose window is set-ups needs none before it.
	began := time.Now()
	for i := 0; wl.tape != nil && (i < o.setups || (o.setups > 1 && i < maxSetups && time.Since(began) < 2*time.Second)); i++ {
		if err := next(); err != nil {
			return nil, err
		}
	}

	// In a traced run the window takes the first half of the time and the
	// ladder the second.
	length := time.Duration(o.seconds * float64(time.Second))
	if o.traced {
		length /= 2
	}
	lead := length / leadShare
	var w *window
	var t *tape
	mismatch := 0
	if wl.tape != nil {
		if t, err = wl.tape(s.c, o.seed, (lead + length).Seconds()); err != nil {
			return nil, err
		}
		if w, err = s.measure(t, e.clients(), lead, length, o.traced); err != nil {
			return nil, err
		}
	} else {
		// The window is set-ups: each cycle tears the last one down and
		// sets up again. What a cycle's children cost is read just before
		// they are stopped.
		w = &window{router: make(map[string]float64)}
		start := time.Now()
		for cycles := 0; time.Since(start) < length || cycles < 2; cycles++ {
			self0, err := selfCPU()
			if err != nil {
				return nil, err
			}
			cycleStart := time.Since(start)
			if err := next(); err != nil {
				return nil, err
			}
			if err := w.addCycle(s, cycleStart); err != nil {
				return nil, err
			}
			if t, err = warmTape(s.c); err != nil {
				return nil, err
			}
			mismatch += checkKept(newOracle(s.full), t, s.warm.kept, res)
			s.warm.kept = nil
			self1, err := selfCPU()
			if err != nil {
				return nil, err
			}
			w.selfCPU += self1 - self0
		}
		w.lr.elapsed = time.Since(start)
	}

	// The switch probe: view-switch measures switching in its own window;
	// every other workload plays a short run of sessions, one user's worth
	// at a time, on its own corpus.
	var switchMS []float64
	if wl.name == "view-switch" {
		switchMS = switchLatencies(w.lr)
	} else {
		pt, err := viewSwitchTape(s.c, o.seed, probeSessions)
		if err != nil {
			return nil, err
		}
		probe := drive(s.cl.ctx, s.cl.rurl, pt, 1, time.Hour, oracleEvery, false)
		if err := s.cl.failure(); err != nil {
			return nil, err
		}
		res.Attempted += len(probe.samples)
		res.Failed += failures(probe)
		res.Failed += checkKept(newOracle(s.full), pt, probe.kept, res)
		switchMS = switchLatencies(probe)
	}

	mismatch += checkKept(newOracle(s.full), t, w.lr.kept, res)
	res.Attempted += len(w.lr.samples)
	res.Failed += failures(w.lr) + mismatch

	windowMetrics(res, w, t)
	m := res.Metrics
	m["client.mismatch"] = float64(mismatch)
	m["setup_s"] = median(a.setupS)
	res.Spreads["setup_s"] = spreadOf(a.setupS)
	m["warehouse.ingest_mb_s"] = median(a.ingestMBs)
	m["cluster.ready_ms"] = median(a.readyMS)
	m["client.first_query_p50_ms"] = median(a.firstTouchMS)
	m["snapshot_amp"] = a.snapshotAmp
	m["client.switch_p50_ms"] = median(switchMS)
	m["cluster.gather_ms"] = median(a.gatherMS)
	m["server.ready_ms"] = median(a.workerReadyMS)
	m["warehouse.save_v3_mb_s"] = median(a.saveMBs)
	m["warehouse.snapshot_bytes"] = float64(a.shardBytes)
	m["bench.build_s"] = e.buildS

	if o.traced {
		// Tracing overhead: the requests of the window that had a span
		// recorded against those that had none. A window of set-ups plays
		// no tape, so it has neither.
		m["bench.trace_overhead_pct"] = 0
		with := latencies(w.lr, func(s *sample) bool { return s.span })
		without := latencies(w.lr, func(s *sample) bool { return !s.span })
		if len(with) > 0 && len(without) > 0 {
			m["bench.trace_overhead_pct"] = 100 * (median(with) - median(without)) / median(without)
		}
		// The ladder boots its own children; this set-up's are done.
		snapshot, full, c := s.snapshot, s.full, s.c
		if err := s.cl.stop(); err != nil {
			return nil, err
		}
		budget := time.Duration(o.seconds * float64(time.Second) / 2)
		if err := e.layerMetrics(ctx, res, snapshot, full, c, t, wl.tape != nil, budget); err != nil {
			return nil, err
		}
		if err := e.writeSpans(wl.name, w.lr.spans, res); err != nil {
			return nil, err
		}
	}
	if err := s.tearDown(); err != nil {
		return nil, err
	}
	s = nil
	res.Correct = res.Failed == 0
	return res, nil
}

// addCycle adds one set-up cycle of ingest-restart to the window: its
// first-touch queries are the window's requests.
func (w *window) addCycle(s *setup, at time.Duration) error {
	for _, sm := range s.warm.samples {
		sm.at += at
		w.lr.samples = append(w.lr.samples, sm)
	}
	u, err := s.usage()
	if err != nil {
		return err
	}
	w.routerCPU += u.routerCPU
	w.workerCPU += u.workerCPU
	w.routerHWM = max(w.routerHWM, u.routerHWM)
	w.workerHWM = max(w.workerHWM, u.workerHWM)
	r, c, err := s.scrape()
	if err != nil {
		return err
	}
	for k, v := range r {
		w.router[k] += v
	}
	w.closure = w.closure.plus(c, 1)
	return nil
}

// latencies returns, in milliseconds, the latency of every answered
// request that keep accepts (all of them when keep is nil).
func latencies(lr loadResult, keep func(*sample) bool) []float64 {
	var out []float64
	for i := range lr.samples {
		if s := &lr.samples[i]; s.ok && (keep == nil || keep(s)) {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

// switchLatencies is the latency of the requests of a session after its
// first: the closure is cached and only the view changes.
func switchLatencies(lr loadResult) []float64 {
	return latencies(lr, func(s *sample) bool { return s.pos > 0 })
}

// checkKept runs the oracle over the bodies a window held back and returns
// how many differ from the in-process answer.
func checkKept(or *oracle, t *tape, bodies []kept, res *result) int {
	bad := 0
	for _, k := range bodies {
		if err := or.check(&t.keys[k.key], k.body); err != nil {
			bad++
			if bad <= 3 {
				res.Notes = append(res.Notes, err.Error())
			}
		}
	}
	return bad
}

// windowMetrics turns a window into the metrics that come from it.
func windowMetrics(res *result, w *window, t *tape) {
	m := res.Metrics
	lr := w.lr
	var wire int64
	var bodies, lateUS []float64
	perSlice := make([][]float64, windowSlices)
	for i := range lr.samples {
		s := &lr.samples[i]
		if t.due != nil {
			lateUS = append(lateUS, us(s.late))
		}
		if !s.ok {
			continue
		}
		wire += s.wire
		bodies = append(bodies, float64(s.body))
		k := sliceOf(s.at.Seconds(), lr.elapsed.Seconds(), windowSlices)
		perSlice[k] = append(perSlice[k], ms(s.lat))
	}
	lat := latencies(lr, nil)
	fok := float64(len(lat))
	m["p50_ms"] = percentile(lat, 0.50)
	m["client.p95_ms"] = percentile(lat, 0.95)
	m["client.p99_ms"] = percentile(lat, 0.99)
	m["qps"] = fok / lr.elapsed.Seconds()
	m["cpu_us_per_query"] = float64(w.routerCPU+w.workerCPU) / fok
	m["resp_kb"] = float64(wire) / fok / 1e3
	m["rss_mb"] = float64(w.routerHWM+w.workerHWM) / 1e6
	m["client.sent"] = float64(len(lr.samples))
	m["client.ok"] = fok
	m["client.failed"] = float64(failures(lr))
	m["client.fail_ratio"] = float64(failures(lr)) / math.Max(1, float64(len(lr.samples)))
	m["client.cpu_us_per_query"] = float64(w.selfCPU) / fok
	m["client.late_p50_us"], m["client.late_p99_ms"] = 0, 0
	if len(lateUS) > 0 {
		m["client.late_p50_us"] = percentile(lateUS, 0.50)
		m["client.late_p99_ms"] = percentile(lateUS, 0.99) / 1e3
	}
	m["cluster.cpu_us_per_query"] = float64(w.routerCPU) / fok
	m["cluster.rss_mb"] = float64(w.routerHWM) / 1e6
	m["server.cpu_us_per_query"] = float64(w.workerCPU) / fok
	m["server.rss_mb"] = float64(w.workerHWM) / 1e6
	m["server.resp_bytes_p50"] = median(bodies)
	lookups := w.router["cache_hits"] + w.router["cache_misses"]
	m["cluster.cache_hit_ratio"] = w.router["cache_hits"] / math.Max(1, lookups)
	for _, name := range routerCounters {
		if !strings.HasPrefix(name, "cache_") {
			m["cluster."+name] = w.router[name]
		}
	}
	closures := float64(w.closure.Hits + w.closure.Misses + w.closure.SharedWaits)
	m["warehouse.closure_hit_ratio"] = float64(w.closure.Hits) / math.Max(1, closures)
	m["warehouse.cache_evictions"] = float64(w.closure.Evictions)
	m["warehouse.labels_share"] = float64(w.closure.LabelHits) / math.Max(1, float64(w.closure.Computes))

	var p50s, p95s, qpss []float64
	for k := range perSlice {
		if len(perSlice[k]) == 0 {
			continue
		}
		p50s = append(p50s, percentile(perSlice[k], 0.50))
		p95s = append(p95s, percentile(perSlice[k], 0.95))
		qpss = append(qpss, float64(len(perSlice[k]))/(lr.elapsed.Seconds()/windowSlices))
	}
	res.Spreads["p50_ms"] = spreadOf(p50s)
	res.Spreads["client.p95_ms"] = spreadOf(p95s)
	res.Spreads["qps"] = spreadOf(qpss)
	if len(lateUS) > 0 {
		// Lateness of the first and last slice: a generator that falls
		// behind shows a backlog growing from one to the other.
		var first, last []float64
		for i := range lr.samples {
			switch sliceOf(lr.samples[i].at.Seconds(), lr.elapsed.Seconds(), windowSlices) {
			case 0:
				first = append(first, us(lr.samples[i].late))
			case windowSlices - 1:
				last = append(last, us(lr.samples[i].late))
			}
		}
		res.Notes = append(res.Notes, fmt.Sprintf("generator lateness p50: first slice %.0f us, last slice %.0f us",
			median(first), median(last)))
	}
}
