// Package repro_test holds the top-level benchmark harness: one testing.B
// benchmark per table and figure of the paper (see DESIGN.md section 5 for
// the experiment index), plus the ablation benches for the design choices
// called out there. `go test -bench=. -benchmem` regenerates every number;
// `go run ./cmd/zoombench` prints the same experiments as paper-style
// tables with result *sizes* as well as times.
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/run"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/warehouse"
	"repro/internal/wflog"
	"repro/zoom/client"
)

// BenchmarkTable1WorkflowClasses measures workload generation per Table I
// class (specification synthesis from pattern frequencies).
func BenchmarkTable1WorkflowClasses(b *testing.B) {
	for _, class := range gen.Classes() {
		b.Run(class.Name, func(b *testing.B) {
			g := gen.NewGenerator(1)
			for i := 0; i < b.N; i++ {
				s := g.Workflow(class, "bench")
				if s.NumModules() < class.TargetModules {
					b.Fatal("undersized workflow")
				}
			}
		})
	}
}

// BenchmarkTable2RunClasses measures run synthesis (loop unrolling, data
// allocation, log emission) per Table II kind.
func BenchmarkTable2RunClasses(b *testing.B) {
	for _, rc := range gen.RunClasses() {
		if rc.Name == "large" {
			rc.MaxNodes = 3000 // keep the harness snappy; -bench can be re-run with Full()
		}
		b.Run(rc.Name, func(b *testing.B) {
			g := gen.NewGenerator(2)
			s := g.Workflow(gen.Class4(), "bench")
			b.ResetTimer()
			steps := 0
			for i := 0; i < b.N; i++ {
				r, _, err := g.Run(s, rc, "bench-run")
				if err != nil {
					b.Fatal(err)
				}
				steps = r.NumSteps()
			}
			b.ReportMetric(float64(steps), "steps/run")
		})
	}
}

// BenchmarkViewBuilderScalability is experiment E1: RelevUserViewBuilder
// on randomized specifications of growing size (the paper sweeps 100-1000
// nodes and reports < 80 ms per execution).
func BenchmarkViewBuilderScalability(b *testing.B) {
	for _, nodes := range []int{100, 300, 1000} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			g := gen.NewGenerator(3)
			class := gen.Class3()
			class.TargetModules = nodes
			s := g.Workflow(class, "scale")
			rel := g.RandomRelevant(s, 20)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildRelevant(s, rel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// viewChecksCase is the view BenchmarkViewChecks and TestViewChecksAllocs
// check: the builder's view of BenchmarkViewBuilderScalability's
// specification of the given size, at 20% relevant.
func viewChecksCase(tb testing.TB, nodes int) (*core.UserView, []string) {
	g := gen.NewGenerator(3)
	class := gen.Class3()
	class.TargetModules = nodes
	s := g.Workflow(class, "scale")
	rel := g.RandomRelevant(s, 20)
	v, err := core.BuildRelevant(s, rel)
	if err != nil {
		tb.Fatal(err)
	}
	return v, rel
}

// BenchmarkViewChecks measures checking a view against Properties 1-3:
// CheckAll (first violation) and Diagnose (every violation) at 100, 300 and
// 1,000 nodes, and the pairwise-merge Minimal at 100 nodes, all on the
// builder's own views, which pass.
func BenchmarkViewChecks(b *testing.B) {
	for _, nodes := range []int{100, 300, 1000} {
		v, rel := viewChecksCase(b, nodes)
		b.Run(fmt.Sprintf("CheckAll/nodes=%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := core.CheckAll(v, rel); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Diagnose/nodes=%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if vs := core.Diagnose(v, rel); len(vs) != 0 {
					b.Fatal(vs[0])
				}
			}
		})
	}
	v, rel := viewChecksCase(b, 100)
	b.Run("Minimal/nodes=100", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ok, w := core.Minimal(v, rel); !ok {
				b.Fatalf("builder view not minimal: %v", w)
			}
		}
	})
}

// TestViewChecksAllocs bounds CheckAll's allocations on the 300-node case
// of BenchmarkViewChecks. The string checkers the integer pass replaced
// made 4,388 allocations there and the pass makes 54; the bound of 100
// keeps it more than 40x below the old count.
func TestViewChecksAllocs(t *testing.T) {
	v, rel := viewChecksCase(t, 300)
	allocs := testing.AllocsPerRun(3, func() {
		if err := core.CheckAll(v, rel); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 100
	if allocs > bound {
		t.Fatalf("CheckAll made %.0f allocations on 300 nodes, bound %d", allocs, bound)
	}
}

// BenchmarkViewBuilderOptimality is experiment E2: the builder across the
// relevant-percentage sweep, reporting the surplus composites beyond |R|.
func BenchmarkViewBuilderOptimality(b *testing.B) {
	for _, pct := range []int{10, 50, 90} {
		b.Run(fmt.Sprintf("pct=%d", pct), func(b *testing.B) {
			g := gen.NewGenerator(4)
			s := g.Workflow(gen.Class2(), "opt")
			rel := g.RandomRelevant(s, pct)
			extra := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := core.BuildRelevant(s, rel)
				if err != nil {
					b.Fatal(err)
				}
				extra = v.Size() - len(rel)
			}
			b.ReportMetric(float64(extra), "extra-composites")
		})
	}
}

// fig10Site prepares one (workflow, run, warehouse) fixture.
type fig10Site struct {
	s     *spec.Spec
	r     *run.Run
	e     *provenance.Engine
	w     *warehouse.Warehouse
	root  string
	admin *core.UserView
	bio   *core.UserView
	bb    *core.UserView
}

func newFig10Site(b *testing.B, class gen.WorkflowClass, rc gen.RunClass, seed int64) *fig10Site {
	b.Helper()
	g := gen.NewGenerator(seed)
	site := &fig10Site{}
	site.s = g.Workflow(class, "f10")
	var err error
	site.r, _, err = g.Run(site.s, rc, "f10-run")
	if err != nil {
		b.Fatal(err)
	}
	site.w = warehouse.New(0)
	if err := site.w.RegisterSpec(site.s); err != nil {
		b.Fatal(err)
	}
	if err := site.w.LoadRun(site.r); err != nil {
		b.Fatal(err)
	}
	site.e = provenance.NewEngine(site.w)
	finals := site.r.FinalOutputs()
	site.root = finals[len(finals)-1]
	site.admin = core.UAdmin(site.s)
	if site.bio, err = core.BuildRelevant(site.s, gen.UBioRelevant(site.s)); err != nil {
		b.Fatal(err)
	}
	if site.bb, err = core.UBlackBox(site.s); err != nil {
		b.Fatal(err)
	}
	return site
}

// BenchmarkFig10QueryResultSize is Figure 10: deep provenance of the final
// output under UAdmin / UBio / UBlackBox. The reported custom metric is
// the result size in data items — the quantity the figure plots.
func BenchmarkFig10QueryResultSize(b *testing.B) {
	rc := gen.Medium()
	for _, class := range gen.Classes() {
		site := newFig10Site(b, class, rc, 10)
		for _, v := range []struct {
			name string
			view *core.UserView
		}{{"UAdmin", site.admin}, {"UBio", site.bio}, {"UBlackBox", site.bb}} {
			b.Run(class.Name+"/"+v.name, func(b *testing.B) {
				size := 0
				for i := 0; i < b.N; i++ {
					res, err := site.e.DeepProvenance(site.r.ID(), v.view, site.root)
					if err != nil {
						b.Fatal(err)
					}
					size = res.NumData()
				}
				b.ReportMetric(float64(size), "data-items")
			})
		}
	}
}

// BenchmarkQueryResponseTime is experiment E3: the cold deep-provenance
// query (cache reset every iteration) per run kind.
func BenchmarkQueryResponseTime(b *testing.B) {
	kinds := gen.RunClasses()
	kinds[2].MaxNodes = 3000
	for _, rc := range kinds {
		b.Run(rc.Name, func(b *testing.B) {
			site := newFig10Site(b, gen.Class4(), rc, 11)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				site.w.ResetCache()
				if _, err := site.e.DeepProvenance(site.r.ID(), site.admin, site.root); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkViewSwitch is experiment E4: re-answering the query under a
// different view with the UAdmin closure already cached (the paper's 13 ms
// interactive switch).
func BenchmarkViewSwitch(b *testing.B) {
	kinds := gen.RunClasses()
	kinds[2].MaxNodes = 3000
	for _, rc := range kinds {
		b.Run(rc.Name, func(b *testing.B) {
			site := newFig10Site(b, gen.Class4(), rc, 12)
			// Prime the closure cache and the mapping caches.
			if _, err := site.e.DeepProvenance(site.r.ID(), site.admin, site.root); err != nil {
				b.Fatal(err)
			}
			views := []*core.UserView{site.bio, site.bb}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := site.e.DeepProvenance(site.r.ID(), views[i%2], site.root); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11Granularity is Figure 11: result size (and query cost) as
// the percentage of relevant modules grows.
func BenchmarkFig11Granularity(b *testing.B) {
	site := newFig10Site(b, gen.Class4(), gen.Medium(), 13)
	g := gen.NewGenerator(14)
	for _, pct := range []int{0, 30, 60, 100} {
		rel := g.RandomRelevant(site.s, pct)
		v, err := core.BuildRelevant(site.s, rel)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("pct=%d", pct), func(b *testing.B) {
			size := 0
			for i := 0; i < b.N; i++ {
				res, err := site.e.DeepProvenance(site.r.ID(), v, site.root)
				if err != nil {
					b.Fatal(err)
				}
				size = res.NumData()
			}
			b.ReportMetric(float64(size), "data-items")
		})
	}
}

// BenchmarkClosure times the layer under every deep query: one cold UAdmin
// closure on a Class4-large run (generator seed 11, the shape of zoomload's
// cold-deep corpus). "provenance" is the backward closure of the last final
// output, invalidated before every call so the number includes the cache's
// miss bookkeeping; "derivation" is the forward closure of an external
// input, which is never cached. -benchmem shows the traversal's garbage.
func BenchmarkClosure(b *testing.B) {
	site := newFig10Site(b, gen.Class4(), gen.Large(), 11)
	w, r, root := site.w, site.r, site.root
	b.Run("provenance", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.Invalidate(r.ID(), root)
			if _, err := w.DeepProvenance(r.ID(), root); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("derivation", func(b *testing.B) {
		ins := r.ExternalInputs()
		if len(ins) == 0 {
			b.Skip("run has no external inputs")
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := w.DeepDerivation(r.ID(), ins[0]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationNRPath (A1) compares the memoized nr-path fronts the
// Analysis precomputes against answering each rpred/rsucc membership with
// a fresh filtered BFS — the naive alternative the O(|N|²+|E|) bound of
// the paper rules out.
func BenchmarkAblationNRPath(b *testing.B) {
	g := gen.NewGenerator(15)
	class := gen.Class3()
	class.TargetModules = 150
	s := g.Workflow(class, "nr")
	rel := g.RandomRelevant(s, 20)
	relSet := make(map[string]bool, len(rel))
	for _, r := range rel {
		relSet[r] = true
	}
	b.Run("memoizedFronts", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, err := core.NewAnalysis(s, rel)
			if err != nil {
				b.Fatal(err)
			}
			for _, n := range s.ModuleNames() {
				_ = a.RPred(n)
				_ = a.RSucc(n)
			}
		}
	})
	b.Run("perQueryBFS", func(b *testing.B) {
		avoid := func(n string) bool { return relSet[n] }
		sources := append(append([]string(nil), rel...), spec.Input)
		targets := append(append([]string(nil), rel...), spec.Output)
		gg := s.Graph()
		for i := 0; i < b.N; i++ {
			for _, n := range s.ModuleNames() {
				for _, r := range sources {
					_ = gg.HasPathAvoiding(r, n, avoid)
				}
				for _, r := range targets {
					_ = gg.HasPathAvoiding(n, r, avoid)
				}
			}
		}
	})
}

// BenchmarkAblationStrategy (A2) compares the paper's winning evaluation
// strategy (cached UAdmin closure, then project) against per-view direct
// recursion and against the projected strategy with the cache disabled.
func BenchmarkAblationStrategy(b *testing.B) {
	site := newFig10Site(b, gen.Class4(), gen.Medium(), 16)
	// Warm every mapping once so the comparison isolates query evaluation.
	if _, err := site.e.DeepProvenance(site.r.ID(), site.bio, site.root); err != nil {
		b.Fatal(err)
	}
	if _, err := site.e.DeepProvenanceDirect(site.r.ID(), site.bio, site.root); err != nil {
		b.Fatal(err)
	}
	b.Run("projectCached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := site.e.DeepProvenance(site.r.ID(), site.bio, site.root); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("projectCold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			site.w.ResetCache()
			if _, err := site.e.DeepProvenance(site.r.ID(), site.bio, site.root); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("directRecursion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := site.e.DeepProvenanceDirect(site.r.ID(), site.bio, site.root); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHarnessEndToEnd times the whole Section V sweep at CI scale,
// pinning the cost of `zoombench` defaults.
func BenchmarkHarnessEndToEnd(b *testing.B) {
	o := bench.Default()
	o.WorkflowsPerClass = 1
	o.RunsPerKind = 1
	o.Trials = 1
	o.ScaleSpecs = 4
	o.MaxSpecNodes = 200
	o.LargeRunCap = 500
	for i := 0; i < b.N; i++ {
		if got := bench.RunAll(o); len(got) != len(bench.Experiments()) {
			b.Fatalf("%d reports for %d registered experiments", len(got), len(bench.Experiments()))
		}
	}
}

// BenchmarkIngestLogStream measures streaming log ingestion: a JSON-lines
// event log is decoded and fed straight into run construction without ever
// materializing an event slice.
func BenchmarkIngestLogStream(b *testing.B) {
	g := gen.NewGenerator(33)
	s := g.Workflow(gen.Class4(), "ingest-log")
	r, _, err := g.Run(s, gen.Medium(), "ingest-log-r")
	if err != nil {
		b.Fatal(err)
	}
	events, err := r.ToLog()
	if err != nil {
		b.Fatal(err)
	}
	var log bytes.Buffer
	if err := wflog.Write(&log, events); err != nil {
		b.Fatal(err)
	}
	image := log.Bytes()
	b.SetBytes(int64(len(image)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := warehouse.New(0)
		if err := w.RegisterSpec(s); err != nil {
			b.Fatal(err)
		}
		if _, err := w.LoadLogReader(r.ID(), s.Name(), bytes.NewReader(image)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteLog measures what the corpus generator pays per run:
// executing one Class4-large run (gen.Run, which renders the run's log)
// and writing its log as JSON lines. Every iteration generates the same
// run.
func BenchmarkExecuteLog(b *testing.B) {
	s := gen.NewGenerator(36).Workflow(gen.Class4(), "execute-log")
	var log bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, events, err := gen.NewGenerator(37).Run(s, gen.Large(), "execute-log-r")
		if err != nil {
			b.Fatal(err)
		}
		log.Reset()
		if err := wflog.Write(&log, events); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(log.Len()))
	}
}

// BenchmarkObsOverhead (O1) pins the cost of the observability layer on the
// deep-provenance query. "detached" is the default state with no registry
// attached — instrumented code pays only a pointer load and a few nil
// checks, never a clock read — and "attached" records every counter and
// histogram with per-stage timing.
//
// The headline comparison is "cold" (closure compute + projection, cache
// reset each iteration — the paper's deep provenance query, same shape as
// BenchmarkQueryResponseTime): attached must stay within 2% of detached
// there. "warm" is the microsecond-scale cached view switch, where the
// fixed ~3 clock reads + histogram updates of an attached registry are a
// measurable fraction of the op — EXPERIMENTS.md section O1 records the
// absolute cost; detached stays at baseline in both.
//
// "traced" (O2) additionally builds a request span tree per query — an
// obs.Trace, a context carrying it, and one span per engine stage — the
// full per-request cost the HTTP server pays for X-Zoom-Trace-Id and the
// slow-query log. Untraced queries through the same instrumented code
// (detached/attached) must not regress: spans cost nothing until a trace
// is actually in the context.
func BenchmarkObsOverhead(b *testing.B) {
	for _, mode := range []struct {
		name   string
		reg    *obs.Registry
		traced bool
	}{
		{"detached", nil, false},
		{"attached", obs.NewRegistry(), false},
		{"traced", obs.NewRegistry(), true},
	} {
		site := newFig10Site(b, gen.Class4(), gen.Medium(), 41)
		site.e.AttachMetrics(mode.reg)
		site.w.AttachMetrics(mode.reg)
		// Prime the mapping caches so both halves measure only the query.
		if _, err := site.e.DeepProvenance(site.r.ID(), site.bio, site.root); err != nil {
			b.Fatal(err)
		}
		query := func(v *core.UserView) error {
			if !mode.traced {
				_, err := site.e.DeepProvenance(site.r.ID(), v, site.root)
				return err
			}
			tr := obs.NewTrace("bench.query")
			ctx := tr.Context(context.Background())
			_, err := site.e.DeepProvenanceCtx(ctx, site.r.ID(), v, site.root)
			tr.Finish()
			return err
		}
		b.Run("cold/"+mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				site.w.ResetCache()
				if err := query(site.admin); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("warm/"+mode.name, func(b *testing.B) {
			if _, err := site.e.DeepProvenance(site.r.ID(), site.admin, site.root); err != nil {
				b.Fatal(err)
			}
			views := []*core.UserView{site.bio, site.bb}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := query(views[i%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Routed (O3): the same query through a 2-shard router, tracing off vs
	// ?trace=1 with cross-process stitching. "routed/off" is every
	// production request's state — the span machinery, the slowlog ring,
	// and the per-replica instruments are all live but dormant, and the
	// row must sit within noise of what PR 8's uninstrumented router paid
	// (zoombench -only O3 publishes the absolute comparison).
	g := gen.NewGenerator(37)
	sp := g.Workflow(gen.Classes()[0], "bench-obs-routed")
	full := warehouse.New(0)
	if err := full.RegisterSpec(sp); err != nil {
		b.Fatal(err)
	}
	type target struct{ run, data string }
	var targets []target
	for i := 0; i < 8; i++ {
		r, _, err := g.Run(sp, gen.Small(), fmt.Sprintf("ob-run-%02d", i))
		if err != nil {
			b.Fatal(err)
		}
		if err := full.LoadRun(r); err != nil {
			b.Fatal(err)
		}
		targets = append(targets, target{run: r.ID(), data: r.AllData()[0]})
	}
	c := shardCluster(b, full, 2)
	ctx := context.Background()
	for _, traced := range []bool{false, true} {
		name := "routed/off"
		if traced {
			name = "routed/traced"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t := targets[i%len(targets)]
				if _, err := c.Query(ctx, client.QueryRequest{Run: t.run, Data: t.data, Trace: traced}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// shardCluster boots n workers over ring-split subsets of full plus a
// router in front, returning a client against the router. Cleanup is
// registered on b.
func shardCluster(b *testing.B, full *warehouse.Warehouse, n int) *client.Client {
	b.Helper()
	ring, err := cluster.NewRing(n, 0)
	if err != nil {
		b.Fatal(err)
	}
	shards := make([][]string, n)
	for k := 0; k < n; k++ {
		sub, err := full.Subset(func(id string) bool { return ring.Place(id) == k })
		if err != nil {
			b.Fatal(err)
		}
		s, err := server.New(obs.NewRegistry(), server.Config{})
		if err != nil {
			b.Fatal(err)
		}
		s.SetEngine(provenance.NewEngine(sub))
		ts := httptest.NewServer(s.Handler())
		b.Cleanup(ts.Close)
		shards[k] = []string{ts.URL}
	}
	rt, err := cluster.New(obs.NewRegistry(), cluster.Config{Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	b.Cleanup(front.Close)
	return client.New(front.URL, client.Options{})
}

// BenchmarkFirstTouch times what the first request for a run pays on a
// freshly opened v3 snapshot, on a corpus shaped like zoomload's
// ingest-restart (12 Class4-large runs, generator seed 10). One iteration
// opens the snapshot and touches every run once: "run" materializes it
// (Warehouse.Run: checksum, invariant checks, adoption), "tokens" also builds
// its JSON token tables (so tokens minus run is what those cost a first
// answer), "query" asks the first UAdmin deep-provenance query of its last
// final output (run, closure, mapping, projection) and "answer" encodes it as
// the server would (the same plus tokens and bytes, minus the strings of a
// Result) into a buffer already grown by earlier answers, as a warm pool
// hands out. "answer-fresh" encodes into a nil buffer instead, as a fresh
// worker's first answer is written. us/run divides by the corpus; -benchmem
// shows what a touch allocates (TestV3TouchedRunHeap measures what it leaves
// on the heap).
func BenchmarkFirstTouch(b *testing.B) {
	const runs = 12
	g := gen.NewGenerator(10)
	s := g.Workflow(gen.Class4(), "first-touch")
	src := warehouse.New(0)
	if err := src.RegisterSpec(s); err != nil {
		b.Fatal(err)
	}
	ids, roots := make([]string, runs), make([]string, runs)
	for i := range ids {
		ids[i] = fmt.Sprintf("ft-%02d", i)
		r, _, err := g.Run(s, gen.Large(), ids[i])
		if err != nil {
			b.Fatal(err)
		}
		if err := src.LoadRun(r); err != nil {
			b.Fatal(err)
		}
		finals := r.FinalOutputs()
		roots[i] = finals[len(finals)-1]
	}
	path := filepath.Join(b.TempDir(), "wh.v3")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := src.SaveV3(f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	admin := core.UAdmin(s)
	touch := map[string]func(w *warehouse.Warehouse, e *provenance.Engine, i int) error{
		"run": func(w *warehouse.Warehouse, _ *provenance.Engine, i int) error {
			_, err := w.Run(ids[i])
			return err
		},
		"tokens": func(w *warehouse.Warehouse, _ *provenance.Engine, i int) error {
			r, err := w.Run(ids[i])
			if err == nil {
				r.Index().Tokens()
			}
			return err
		},
		"query": func(_ *warehouse.Warehouse, e *provenance.Engine, i int) error {
			_, err := e.DeepProvenance(ids[i], admin, roots[i])
			return err
		},
		"answer": func(_ *warehouse.Warehouse, e *provenance.Engine, i int) error {
			a, err := e.DeepAnswerCtx(context.Background(), ids[i], admin, roots[i])
			if err == nil {
				answerBuf = server.AppendAnswer(answerBuf[:0], a)
			}
			return err
		},
		"answer-fresh": func(_ *warehouse.Warehouse, e *provenance.Engine, i int) error {
			a, err := e.DeepAnswerCtx(context.Background(), ids[i], admin, roots[i])
			if err == nil {
				answerBuf = server.AppendAnswer(nil, a)
			}
			return err
		},
	}
	for _, name := range []string{"run", "tokens", "query", "answer", "answer-fresh"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				w, err := warehouse.OpenV3(path, 0, warehouse.LoadOptions{})
				if err != nil {
					b.Fatal(err)
				}
				e := provenance.NewEngine(w)
				for i := range ids {
					if err := touch[name](w, e, i); err != nil {
						b.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*runs), "us/run")
		})
	}
}

// answerBuf is the encode buffer the answer-path benchmarks reuse.
var answerBuf []byte

// answerPathSite is BenchmarkAnswerPath's fixture: one run shaped like
// zoomload's cold-deep corpus (Class4-large, generator seed 11) and 16 data
// objects spread over the later half of the run, so the answers under
// UAdmin are the large ones (about 1,000 rows each).
func answerPathSite(b *testing.B) (*fig10Site, []string) {
	b.Helper()
	site := newFig10Site(b, gen.Class4(), gen.Large(), 11)
	all := site.r.AllData()
	roots := make([]string, 16)
	for i := range roots {
		roots[i] = all[len(all)/2+i*(len(all)/2)/len(roots)]
	}
	return site, roots
}

// BenchmarkAnswerPath times the three stages between a cached closure and
// the client's socket on large answers (EXPERIMENTS.md, "answer path"):
// projection of a warm closure through a warm mapping to an integer answer,
// encoding an answer into a reused buffer (and the two together, which is
// what a worker does per request), and the router's relay through Handler():
// a cache hit, and a miss forwarded to an in-process worker.
func BenchmarkAnswerPath(b *testing.B) {
	site, roots := answerPathSite(b)
	ctx := context.Background()
	project := func(i int) *provenance.Answer {
		a, err := site.e.DeepAnswerCtx(ctx, site.r.ID(), site.admin, roots[i%len(roots)])
		if err != nil {
			b.Fatal(err)
		}
		return a
	}
	answers := make([]*provenance.Answer, len(roots))
	for i := range roots {
		answers[i] = project(i)
	}
	b.Run("project", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			project(i)
		}
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			answerBuf = server.AppendAnswer(answerBuf[:0], answers[i%len(answers)])
		}
		b.SetBytes(int64(len(answerBuf)))
	})
	b.Run("project+encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			answerBuf = server.AppendAnswer(answerBuf[:0], project(i))
		}
		b.SetBytes(int64(len(answerBuf)))
	})
	// relay-hit serves every answer from the router cache: each is asked
	// twice before the timer starts, so it has left the cache's probation
	// segment, which holds a fifth of the entries. relay-miss runs
	// `zoom router`'s default cache, whose 16 KiB fair share declines these
	// answers, so each one is forwarded and read into a pooled buffer.
	for _, tc := range []struct {
		name    string
		entries int
		stored  bool
	}{
		{"relay-hit", len(roots), true},
		{"relay-miss", 4096, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s, err := server.New(obs.NewRegistry(), server.Config{})
			if err != nil {
				b.Fatal(err)
			}
			s.SetEngine(site.e)
			worker := httptest.NewServer(s.Handler())
			defer worker.Close()
			rt, err := cluster.New(obs.NewRegistry(), cluster.Config{Shards: [][]string{{worker.URL}}, CacheEntries: tc.entries})
			if err != nil {
				b.Fatal(err)
			}
			h := rt.Handler()
			bodies := make([][]byte, len(roots))
			rd := bytes.NewReader(nil)
			req := httptest.NewRequest("POST", "/v1/query", nil)
			req.Body = io.NopCloser(rd)
			w := &discardWriter{h: make(http.Header)}
			serve := func(i int) {
				rd.Reset(bodies[i%len(bodies)])
				h.ServeHTTP(w, req)
				if w.status != http.StatusOK {
					b.Fatalf("status %d", w.status)
				}
			}
			for i, d := range roots {
				bodies[i] = []byte(fmt.Sprintf(`{"run":%q,"data":%q}`, site.r.ID(), d))
				serve(i) // miss: forwards, and stores what the cache admits
				serve(i) // a hit on an admitted answer promotes it
			}
			if stored := rt.Registry().Snapshot().Counters["router.cache_declined"] == 0; stored != tc.stored {
				b.Fatalf("answers stored: %v, want %v", stored, tc.stored)
			}
			w.n = 0
			misses := rt.Registry().Snapshot().Counters["router.cache_misses"]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve(i)
			}
			b.StopTimer()
			if missed := rt.Registry().Snapshot().Counters["router.cache_misses"] > misses; missed == tc.stored {
				b.Fatalf("timed requests missed the cache: %v, want %v", missed, !tc.stored)
			}
			b.SetBytes(int64(w.n / b.N))
		})
	}
}

// discardWriter is a reusable http.ResponseWriter that keeps nothing, so
// the relay rows time the router, not a recorder.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }
func (w *discardWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }
