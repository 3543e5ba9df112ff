package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/provenance"
	"repro/internal/spec"
	"repro/internal/warehouse"
)

// ExpMinimumGap studies the paper's open problem empirically: how often is
// RelevUserViewBuilder's minimal view strictly larger than the minimum one?
// For small random specifications the minimum is found by exhaustive search
// (core.MinimumView), so the gap can be measured exactly.
func ExpMinimumGap(o Options) *Report {
	rep := &Report{
		ID:      "E5",
		Title:   "Minimal vs. minimum user views (open problem, Figure 7)",
		Headers: []string{"modules", "instances", "gap instances", "gap %", "avg gap", "max gap"},
	}
	g := gen.NewGenerator(o.Seed + 9)
	perSize := 100 * o.Trials
	for _, n := range []int{4, 5, 6} {
		var gaps, total, sumGap, maxGap int
		for i := 0; i < perSize; i++ {
			// Unstructured random DAGs: pattern-built workflows almost
			// never exhibit the gap, random ones occasionally do.
			s := g.RandomDAG(fmt.Sprintf("gap-%d-%d", n, i), n)
			if s.NumModules() > core.MaxMinimumSearchModules {
				continue
			}
			rel := g.RandomRelevant(s, 20+(i%3)*20)
			built, err := core.BuildRelevant(s, rel)
			if err != nil {
				continue
			}
			min, err := core.MinimumView(s, rel)
			if err != nil {
				continue
			}
			total++
			if d := built.Size() - min.Size(); d > 0 {
				gaps++
				sumGap += d
				if d > maxGap {
					maxGap = d
				}
			}
		}
		if total == 0 {
			continue
		}
		avg := 0.0
		if gaps > 0 {
			avg = float64(sumGap) / float64(gaps)
		}
		rep.Append(fmt.Sprintf("%d", n), total, gaps,
			100*float64(gaps)/float64(total), avg, maxGap)
	}
	// The machine-found Figure 7 instance always exhibits the gap.
	f7, f7rel := spec.Figure7()
	f7built, err := core.BuildRelevant(f7, f7rel)
	if err != nil {
		panic(err)
	}
	f7min, err := core.MinimumView(f7, f7rel)
	if err != nil {
		panic(err)
	}
	rep.Append("figure7", 1, 1, 100.0, float64(f7built.Size()-f7min.Size()), f7built.Size()-f7min.Size())
	rep.Notes = append(rep.Notes,
		"the builder is always minimal (no pairwise merge possible, Theorem 1) but, as",
		"the paper's Figure 7 shows, not always minimum; spec/examples.go carries a",
		"machine-found instance with builder size 5 vs. minimum 3.")
	return rep
}

// ablationQueryReps is how many queries each A2 loop issues.
const ablationQueryReps = 20

// ExpAblation reports the two design-choice ablations of DESIGN.md as a
// table: the memoized nr-path fronts behind the builder, and the
// compute-UAdmin-then-project query strategy against its alternatives.
func ExpAblation(o Options) *Report {
	rep := &Report{
		ID:      "A1/A2",
		Title:   "Ablations: nr-path memoization and query strategy",
		Headers: []string{"variant", "avg ms", "vs baseline", "closure cache"},
	}
	g := gen.NewGenerator(o.Seed + 10)

	// A1: nr-path machinery on a mid-size specification.
	class := gen.Class3()
	class.TargetModules = 120
	s := g.Workflow(class, "abl-nr")
	rel := g.RandomRelevant(s, 20)
	relSet := make(map[string]bool, len(rel))
	for _, r := range rel {
		relSet[r] = true
	}
	repeats := 3
	memo := timeIt(repeats, func() {
		a, err := core.NewAnalysis(s, rel)
		if err != nil {
			panic(err)
		}
		for _, n := range s.ModuleNames() {
			_ = a.RPred(n)
			_ = a.RSucc(n)
		}
	})
	perQuery := timeIt(1, func() {
		gg := s.Graph()
		avoid := func(n string) bool { return relSet[n] }
		sources := append(append([]string(nil), rel...), spec.Input)
		targets := append(append([]string(nil), rel...), spec.Output)
		for _, n := range s.ModuleNames() {
			for _, r := range sources {
				_ = gg.HasPathAvoiding(r, n, avoid)
			}
			for _, r := range targets {
				_ = gg.HasPathAvoiding(n, r, avoid)
			}
		}
	})
	rep.Append("A1 memoized fronts (builder)", ms(memo), "1.00x", "-")
	rep.Append("A1 per-query BFS", ms(perQuery), ratio(perQuery, memo), "-")

	// A2: query strategies over one medium Class 4 run.
	s4 := g.Workflow(gen.Class4(), "abl-q")
	rc := gen.Medium()
	r, _, err := g.Run(s4, rc, "abl-run")
	if err != nil {
		panic(err)
	}
	w := warehouse.New(0)
	if err := w.RegisterSpec(s4); err != nil {
		panic(err)
	}
	if err := w.LoadRun(r); err != nil {
		panic(err)
	}
	e := provenance.NewEngine(w)
	bio, err := core.BuildRelevant(s4, gen.UBioRelevant(s4))
	if err != nil {
		panic(err)
	}
	finals := r.FinalOutputs()
	root := finals[len(finals)-1]
	// Warm mapping caches once.
	if _, err := e.DeepProvenance(r.ID(), bio, root); err != nil {
		panic(err)
	}
	if _, err := e.DeepProvenanceDirect(r.ID(), bio, root); err != nil {
		panic(err)
	}
	// The integer closure is cheap next to the projection, so the cached and
	// cold timings sit within noise of each other: the two loops are told
	// apart by the closure-cache counters (deterministic), and the timings
	// are reported, not asserted.
	cacheDelta := func(before warehouse.CacheCounters) string {
		after := w.CacheCounters()
		return fmt.Sprintf("%d hits / %d misses", after.Hits-before.Hits, after.Misses-before.Misses)
	}
	before := w.CacheCounters()
	cached := timeIt(ablationQueryReps, func() {
		if _, err := e.DeepProvenance(r.ID(), bio, root); err != nil {
			panic(err)
		}
	})
	cachedCache := cacheDelta(before)
	// Invalidate (not ResetCache, which zeroes the counters) evicts the one
	// cached closure, so every iteration recomputes it.
	before = w.CacheCounters()
	cold := timeIt(ablationQueryReps, func() {
		w.Invalidate(r.ID(), root)
		if _, err := e.DeepProvenance(r.ID(), bio, root); err != nil {
			panic(err)
		}
	})
	coldCache := cacheDelta(before)
	direct := timeIt(ablationQueryReps, func() {
		if _, err := e.DeepProvenanceDirect(r.ID(), bio, root); err != nil {
			panic(err)
		}
	})
	rep.Append("A2 project, cached closure (paper)", ms(cached), "1.00x", cachedCache)
	rep.Append("A2 project, cold closure", ms(cold), ratio(cold, cached), coldCache)
	rep.Append("A2 direct per-view recursion", ms(direct), ratio(direct, cached), "-")
	rep.Notes = append(rep.Notes,
		"direct recursion can be fast but over-approximates multi-step composite inputs;",
		"the projected strategy is exact and its cache powers interactive view switching.",
		"recomputing the integer closure costs little next to the projection, so the ms of",
		"the cached and cold rows can tie; the closure-cache column tells the loops apart.")
	return rep
}

func timeIt(repeats int, fn func()) time.Duration {
	start := time.Now()
	for i := 0; i < repeats; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(repeats)
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func ratio(a, b time.Duration) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", float64(a)/float64(b))
}
