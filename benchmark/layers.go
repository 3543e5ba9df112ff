package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	zcluster "repro/internal/cluster"
	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/run"
	"repro/internal/warehouse"
	"repro/internal/wflog"
	"repro/zoom/client"
)

// layerSample caps how many distinct items an in-process layer probe times.
const layerSample = 200

// overheadRequests is how many tape requests each pass of the ?trace=1
// comparison replays.
const overheadRequests = 500

// layerMetrics fills in the per-layer metrics that need more than a
// window: the ladder, and in-process calls into single layers. The calls
// are timed from here, around public entry points.
func (e *env) layerMetrics(ctx context.Context, res *result, snapshot string, full *warehouse.Warehouse, c *corpus, t *tape, warmFirst bool, budget time.Duration) error {
	m := res.Metrics
	rp := newReplay(t)
	ld, err := runLadder(ctx, e, snapshot, full, c, rp, warmFirst, budget)
	if err != nil {
		return err
	}
	res.Spans = ld.spans

	// rung returns rung k's duration for each paired request.
	rung := func(k int) []float64 {
		out := make([]float64, ld.played)
		for i := range out {
			for r := 0; r <= k; r++ {
				out[i] += ld.self[r][i]
			}
		}
		return out
	}

	// The budget table: what each layer adds at the median and at the
	// 95th percentile. Medians of paired self times do not add up to the
	// median of their sum, and a hiccup of the sandbox during one rung's
	// replay lands in them as a large row and its negative. A row is
	// therefore the rung's percentile minus that of the rung inside it:
	// each is robust, and the rows sum exactly to the rung-6 figure.
	var inner50, inner95 float64
	for k, layer := range layers {
		d := rung(k)
		p50, p95 := percentile(d, 0.50), percentile(d, 0.95)
		res.Budget = append(res.Budget, budgetRow{Layer: layer, P50US: p50 - inner50, P95US: p95 - inner95})
		inner50, inner95 = p50, p95
	}
	for k := range res.Budget {
		res.Budget[k].Share = res.Budget[k].P50US / inner50
	}
	res.Notes = append(res.Notes, fmt.Sprintf("ladder: %d requests paired on all six rungs; the rows sum to the rung-6 p50 of %.1f us and p95 of %.1f us",
		ld.played, inner50, inner95))

	selfP50 := func(k int) float64 { return percentile(ld.self[k], 0.50) }
	// pick selects the paired requests that keep accepts.
	pick := func(xs []float64, keep func(i int) bool) []float64 {
		var out []float64
		for i, x := range xs {
			if keep(i) {
				out = append(out, x)
			}
		}
		return out
	}
	orZero := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0 // this tape has no such request
		}
		return median(xs)
	}
	m["client.codec_us"] = selfP50(5)
	m["server.codec_us"] = selfP50(2)
	m["server.transport_us"] = selfP50(3)
	m["cluster.route_us"] = orZero(pick(ld.self[4], func(i int) bool { return rp.fresh[i] }))
	m["cluster.hit_us"] = orZero(pick(rung(4), func(i int) bool { return !rp.fresh[i] }))
	m["warehouse.closure_miss_us"] = orZero(pick(ld.self[0], func(i int) bool { return isDeep(&t.keys[rp.keys[i]]) && rp.first[i] }))
	m["warehouse.closure_hit_us"] = orZero(ld.closureHitUS)
	m["provenance.engine_cold_us"] = orZero(pick(rung(1), func(i int) bool { return rp.first[i] }))
	m["provenance.project_us"] = orZero(ld.projectUS)
	m["provenance.closure_tuples"] = float64(ld.closureTuples)
	m["provenance.result_tuples"] = float64(ld.resultTuples)
	m["provenance.shrink_ratio"] = 0
	if ld.closureTuples > 0 {
		m["provenance.shrink_ratio"] = float64(ld.resultTuples) / float64(ld.closureTuples)
	}

	if err := engineKinds(m, full, t, rp); err != nil {
		return err
	}
	if err := viewLayers(m, full, t, rp); err != nil {
		return err
	}
	if err := storageLayers(m, snapshot, full, c); err != nil {
		return err
	}
	return e.traceOverhead(ctx, m, snapshot, c, t, rp)
}

// timed returns how long fn took, in microseconds.
func timed(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return us(time.Since(start)), err
}

// engineKinds times the immediate and derived query kinds in process,
// under UAdmin, on the data the replay asks about.
func engineKinds(m map[string]float64, full *warehouse.Warehouse, t *tape, rp *replay) error {
	or := newOracle(full)
	var imm, der []float64
	for i, k := range rp.keys {
		if !rp.first[i] || len(imm) == layerSample {
			continue
		}
		q := client.QueryRequest{Run: t.keys[k].Run, Data: t.keys[k].Data}
		v, err := or.view(&q)
		if err != nil {
			return err
		}
		d, err := timed(func() error { _, err := or.eng.ImmediateProvenance(q.Run, v, q.Data); return err })
		if err != nil {
			return fmt.Errorf("immediate %+v: %w", q, err)
		}
		imm = append(imm, d)
		d, err = timed(func() error { _, err := or.eng.DeepDerivation(q.Run, v, q.Data); return err })
		if err != nil {
			return fmt.Errorf("derived %+v: %w", q, err)
		}
		der = append(der, d)
	}
	m["provenance.immediate_us"] = median(imm)
	m["provenance.derived_us"] = median(der)
	return nil
}

// viewLayers times the two things the first use of a view pays for:
// building it from a relevant list (core), and mapping a run's steps onto
// its composites (composite).
func viewLayers(m map[string]float64, full *warehouse.Warehouse, t *tape, rp *replay) error {
	or := newOracle(full)
	var build, mapping, sizes []float64
	builtFor := make(map[string]bool)
	mappedFor := make(map[string]bool)
	for _, k := range rp.keys {
		q := &t.keys[k]
		r, err := full.Run(q.Run)
		if err != nil {
			return err
		}
		if vk := r.SpecName() + "\x00" + strings.Join(q.Relevant, "\x00"); len(q.Relevant) > 0 && !builtFor[vk] {
			builtFor[vk] = true
			sp, err := full.Spec(r.SpecName())
			if err != nil {
				return err
			}
			var v *core.UserView
			d, err := timed(func() (err error) { v, err = core.BuildRelevant(sp, q.Relevant); return err })
			if err != nil {
				return err
			}
			build = append(build, d)
			sizes = append(sizes, float64(v.Size()))
		}
		mk := q.Run + "\x00" + q.View + "\x00" + strings.Join(q.Relevant, "\x00")
		if mappedFor[mk] || len(mapping) == layerSample {
			continue
		}
		mappedFor[mk] = true
		v, err := or.view(q)
		if err != nil {
			return err
		}
		d, err := timed(func() error { _, err := composite.Build(r, v); return err })
		if err != nil {
			return err
		}
		mapping = append(mapping, d)
	}
	m["core.views_built"] = float64(len(build))
	m["core.build_view_us"], m["core.view_composites_mean"] = 0, 0
	if len(build) > 0 {
		m["core.build_view_us"] = median(build)
		m["core.view_composites_mean"] = mean(sizes)
	}
	m["composite.mapping_us"] = median(mapping)
	return nil
}

// storageLayers times the layers under the warehouse's query path: the
// snapshot (open, materialise, subset) and the log (parse, reconstruct).
func storageLayers(m map[string]float64, snapshot string, full *warehouse.Warehouse, c *corpus) error {
	var opens, materialize []float64
	for rep := 0; rep < 5; rep++ {
		var w *warehouse.Warehouse
		d, err := timed(func() (err error) { w, err = warehouse.OpenV3(snapshot, 0, warehouse.LoadOptions{}); return err })
		if err != nil {
			return fmt.Errorf("open v3: %w", err)
		}
		opens = append(opens, d/1e3)
		if rep == 0 {
			for i := range c.runs {
				d, err := timed(func() error { _, err := w.Run(c.runs[i].id); return err })
				if err != nil {
					_ = w.Close() // the materialisation error is the one to report
					return fmt.Errorf("materialise %s: %w", c.runs[i].id, err)
				}
				materialize = append(materialize, d)
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
	}
	m["warehouse.open_v3_ms"] = median(opens)
	m["run.materialize_us"] = median(materialize)

	ring, err := zcluster.NewRing(2, 0)
	if err != nil {
		return err
	}
	d, err := timed(func() error { _, err := full.Subset(func(id string) bool { return ring.Place(id) == 0 }); return err })
	if err != nil {
		return fmt.Errorf("subset: %w", err)
	}
	m["warehouse.subset_ms"] = d / 1e3

	var parseUS, reconUS float64
	var steps, data int
	for i := range c.runs {
		r := &c.runs[i]
		var events []wflog.Event
		d, err := timed(func() (err error) { events, err = wflog.Read(bytes.NewReader(r.log)); return err })
		if err != nil {
			return fmt.Errorf("parse log of %s: %w", r.id, err)
		}
		parseUS += d
		d, err = timed(func() error {
			l := run.NewLogLoader(r.id, c.specs[r.spec].spec.Name())
			for _, ev := range events {
				if err := l.Add(ev); err != nil {
					return err
				}
			}
			_, err := l.Finish()
			return err
		})
		if err != nil {
			return fmt.Errorf("reconstruct %s: %w", r.id, err)
		}
		reconUS += d
		steps += r.steps
		data += len(r.data)
	}
	m["wflog.parse_mb_s"] = float64(c.logBytes) / parseUS
	m["run.reconstruct_mb_s"] = float64(c.logBytes) / reconUS
	m["run.steps_mean"] = float64(steps) / float64(len(c.runs))
	m["run.data_mean"] = float64(data) / float64(len(c.runs))
	return nil
}

// traceOverhead replays the start of the tape through a fresh router twice
// with warm closure caches: once with ?trace=1, which returns the stitched
// span tree, and once with an inert query string, which like ?trace=1 keeps
// the request out of the router's cache. The difference is what asking for
// a trace costs.
func (e *env) traceOverhead(ctx context.Context, m map[string]float64, snapshot string, c *corpus, t *tape, rp *replay) error {
	cl, err := bootCluster(ctx, e.zoomBin, snapshot, e.sut)
	if err != nil {
		return err
	}
	defer cl.kill()
	n := min(overheadRequests, len(rp.keys))
	conn := newConn(cl.rurl)
	defer conn.close()
	pass := func(query string) ([]float64, error) {
		var out []float64
		for _, k := range rp.keys[:n] {
			wire := renderRequest(queryPath+query, t.body[k])
			start := time.Now()
			r, err := conn.do(wire, nil)
			if err != nil || !r.ok() {
				return nil, fmt.Errorf("trace overhead: %s%s: status %d: %v", queryPath, query, r.status, err)
			}
			out = append(out, us(time.Since(start)))
		}
		return out, nil
	}
	if _, err := pass("?plain=1"); err != nil { // computes every closure, builds every view
		return err
	}
	plain, err := pass("?plain=1")
	if err != nil {
		return err
	}
	traced, err := pass("?trace=1")
	if err != nil {
		return err
	}
	if err := cl.failure(); err != nil {
		return err
	}
	m["obs.trace_overhead_pct"] = 100 * (median(traced) - median(plain)) / median(plain)
	return cl.stop()
}

// writeSpans writes the spans of a traced run, one JSON object per line,
// under the build directory, where they outlive the run.
func (e *env) writeSpans(workload string, window []span, res *result) error {
	path := filepath.Join(e.root, buildDirName, "spans-"+workload+".jsonl")
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, group := range [][]span{res.Spans, window} {
		for i := range group {
			if err := enc.Encode(&group[i]); err != nil {
				return err
			}
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	res.Notes = append(res.Notes, fmt.Sprintf("%d spans written to %s", len(res.Spans)+len(window), path))
	return nil
}
