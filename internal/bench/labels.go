package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/provenance"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/warehouse"
)

// ExpLabels (P2) measures the reachability-label closure path against the
// bitset BFS on the Table II run classes: the same run is loaded into two
// warehouses — one with SetLabelIndex(true), one without — and the cold
// deep-provenance query of the final output (closure compute + projection,
// cache reset every repetition) is timed on both. Rows cover the parallel
// profile (Class3, whose step graph decomposes into many chains) and the
// loop profile (Class4, long unrolled sequences — the regime that drives
// the largest runs and collapses to a handful of chains). The differential
// suite in internal/provenance guarantees the two strategies return
// identical results, so the speedup column is pure closure-compute cost.
func ExpLabels(o Options) *Report {
	rep := &Report{
		ID:    "P2",
		Title: "Reachability labels vs bitset BFS (cold closure + projection)",
		Headers: []string{"workflow", "run kind", "steps", "data", "chains", "label KB",
			"bfs ms", "labels ms", "speedup"},
	}
	g := gen.NewGenerator(o.Seed + 13)
	for _, wc := range []gen.WorkflowClass{gen.Class3(), gen.Class4()} {
		for _, rc := range runClasses(o) {
			s := g.Workflow(wc, "p2-"+wc.Name+"-"+rc.Name)
			r, _, err := g.Run(s, rc, "p2-"+wc.Name+"-"+rc.Name+"-r")
			if err != nil {
				continue
			}
			// Cold closures on these runs cost tens of microseconds, so the
			// rep counts are high: the timing loop must outlast scheduler
			// and GC noise for the ratio to mean anything.
			reps := 500
			switch {
			case r.NumSteps() > 1000:
				reps = 50
			case r.NumSteps() > 100:
				reps = 200
			}
			bfsMS, _, err := measureLabelQuery(s, r, false, reps)
			if err != nil {
				continue
			}
			labelMS, lstats, err := measureLabelQuery(s, r, true, reps)
			if err != nil {
				continue
			}
			chains, labelKB, speedup := "-", "-", "-"
			if lstats != nil {
				chains = fmt.Sprintf("%d", lstats.Chains)
				labelKB = fmt.Sprintf("%.1f", float64(lstats.LabelBytes)/1024)
				if labelMS > 0 {
					speedup = fmt.Sprintf("%.2fx", bfsMS/labelMS)
				}
			}
			rep.Append(wc.Name, rc.Name, r.NumSteps(), r.NumData(),
				chains, labelKB, bfsMS, labelMS, speedup)
		}
	}
	rep.Notes = append(rep.Notes,
		"same run, two warehouses; labels = chain-decomposition interval index over the",
		"induced step graph (built once at load), bfs = bitset BFS over the CSR index;",
		"every rep resets the closure cache so each query pays the full closure compute.",
		"chains '-' means the label builder declined the run and the row fell back to BFS.")
	return rep
}

// measureLabelQuery loads r into a fresh warehouse (with or without the
// label index) and returns the average wall-clock milliseconds of a cold
// deep-provenance query of the last final output under the UBio view,
// pinned to the matching closure strategy. With labels on it also returns
// the built index's footprint (nil if the builder declined the run — the
// timing then reflects the counted BFS fallback).
func measureLabelQuery(s *spec.Spec, r *run.Run, labels bool, reps int) (avgMS float64, lstats *run.LabelStats, err error) {
	w := warehouse.New(0)
	w.SetLabelIndex(labels)
	if err := w.RegisterSpec(s); err != nil {
		return 0, nil, err
	}
	if err := w.LoadRun(r); err != nil {
		return 0, nil, err
	}
	strat := warehouse.StrategyBFS
	if labels {
		strat = warehouse.StrategyLabels
		if l := w.RunLabels(r.ID()); l != nil {
			st := l.Stats()
			lstats = &st
		}
	}
	e := provenance.NewEngine(w)
	bio, err := core.BuildRelevant(s, gen.UBioRelevant(s))
	if err != nil {
		return 0, nil, err
	}
	finals := r.FinalOutputs()
	if len(finals) == 0 {
		return 0, nil, fmt.Errorf("bench: run %q has no final outputs", r.ID())
	}
	root := finals[len(finals)-1]
	// Warm the mapping and projector so the measurement isolates the
	// per-query path (closure + projection), not one-time setup.
	if _, err := e.DeepProvenanceStrategy(r.ID(), bio, root, strat); err != nil {
		return 0, nil, err
	}
	runtime.GC() // keep earlier experiments' garbage out of the timing loop
	start := time.Now()
	for i := 0; i < reps; i++ {
		w.ResetCache()
		if _, err := e.DeepProvenanceStrategy(r.ID(), bio, root, strat); err != nil {
			return 0, nil, err
		}
	}
	elapsed := time.Since(start)
	avgMS = float64(elapsed.Microseconds()) / float64(reps) / 1000
	return avgMS, lstats, nil
}
