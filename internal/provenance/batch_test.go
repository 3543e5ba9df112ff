package provenance

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/warehouse"
)

// phyloEngine builds an engine over the paper's phylogenomics example with
// the four views the paper discusses: UAdmin, Joe's, Mary's, and UBlackBox.
func phyloEngine(t testing.TB) (*Engine, *run.Run, map[string]*core.UserView) {
	t.Helper()
	s := spec.Phylogenomics()
	w := warehouse.New(0)
	if err := w.RegisterSpec(s); err != nil {
		t.Fatal(err)
	}
	r := run.Figure2()
	if err := w.LoadRun(r); err != nil {
		t.Fatal(err)
	}
	views := map[string]*core.UserView{"admin": core.UAdmin(s)}
	joe, err := core.BuildRelevant(s, spec.PhyloRelevantJoe())
	if err != nil {
		t.Fatal(err)
	}
	views["joe"] = joe
	mary, err := core.BuildRelevant(s, spec.PhyloRelevantMary())
	if err != nil {
		t.Fatal(err)
	}
	views["mary"] = mary
	bb, err := core.UBlackBox(s)
	if err != nil {
		t.Fatal(err)
	}
	views["blackbox"] = bb
	return NewEngine(w), r, views
}

// TestConcurrentBatchMatchesSequentialPhylo pins the batch API's core
// property on the paper's running example: for every view and every data
// object of Figure 2, DeepProvenanceBatch returns exactly the results of
// sequential DeepProvenance calls, regardless of worker count.
func TestConcurrentBatchMatchesSequentialPhylo(t *testing.T) {
	e, r, views := phyloEngine(t)
	data := r.AllData()
	for name, v := range views {
		want := make([]*Result, len(data))
		for i, d := range data {
			res, err := e.DeepProvenance(r.ID(), v, d)
			if err != nil {
				t.Fatalf("sequential %s/%s: %v", name, d, err)
			}
			want[i] = res
		}
		for _, workers := range []int{1, 4, 32} {
			got, err := e.DeepProvenanceBatch(context.Background(), r.ID(), v, data, workers)
			if err != nil {
				t.Fatalf("batch %s @%d workers: %v", name, workers, err)
			}
			for i := range data {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("view %s, %d workers, data %s: batch differs from sequential\nbatch: %+v\nseq:   %+v",
						name, workers, data[i], got[i], want[i])
				}
			}
		}
	}
}

// TestConcurrentBatchMatchesSequentialSynthetic repeats the equivalence
// property on generated workloads: every Table I workflow class, a small
// run, UBio view — the shape the evaluation queries.
func TestConcurrentBatchMatchesSequentialSynthetic(t *testing.T) {
	g := gen.NewGenerator(11)
	for _, class := range gen.Classes() {
		s := g.Workflow(class, "batch-"+class.Name)
		r, _, err := g.Run(s, gen.Small(), "batch-run-"+class.Name)
		if err != nil {
			t.Fatal(err)
		}
		w := warehouse.New(0)
		if err := w.RegisterSpec(s); err != nil {
			t.Fatal(err)
		}
		if err := w.LoadRun(r); err != nil {
			t.Fatal(err)
		}
		e := NewEngine(w)
		v, err := core.BuildRelevant(s, gen.UBioRelevant(s))
		if err != nil {
			t.Fatal(err)
		}
		data := r.AllData()
		want := make([]*Result, len(data))
		for i, d := range data {
			if want[i], err = e.DeepProvenance(r.ID(), v, d); err != nil {
				t.Fatalf("%s sequential %s: %v", class.Name, d, err)
			}
		}
		got, err := e.DeepProvenanceBatch(context.Background(), r.ID(), v, data, 8)
		if err != nil {
			t.Fatalf("%s batch: %v", class.Name, err)
		}
		for i := range data {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: batch result for %s differs from sequential", class.Name, data[i])
			}
		}
	}
}

// TestConcurrentBatchComputesOnce: from a cold closure cache, a batch
// computes exactly one closure per distinct data id at every worker count,
// however often an id repeats and however many workers race for it.
func TestConcurrentBatchComputesOnce(t *testing.T) {
	g := gen.NewGenerator(12)
	s := g.Workflow(gen.Class4(), "computes")
	r, _, err := g.Run(s, gen.Small(), "computes-run")
	if err != nil {
		t.Fatal(err)
	}
	w := warehouse.New(0)
	if err := w.RegisterSpec(s); err != nil {
		t.Fatal(err)
	}
	if err := w.LoadRun(r); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(w)
	v, err := core.BuildRelevant(s, gen.UBioRelevant(s))
	if err != nil {
		t.Fatal(err)
	}
	distinct := r.AllData()
	var ids []string
	for rep := 0; rep < 3; rep++ {
		ids = append(ids, distinct...)
	}
	for _, workers := range []int{1, 4, 16} {
		w.ResetCache()
		if _, err := e.DeepProvenanceBatch(context.Background(), r.ID(), v, ids, workers); err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if c := w.CacheCounters(); c.Computes != int64(len(distinct)) {
			t.Fatalf("%d workers: %d closure computes for %d distinct ids (%+v)", workers, c.Computes, len(distinct), c)
		}
	}
}

// TestDeepProvenanceBatchErrors checks the fail-fast contract, the empty
// batch and a batch on a cancelled context.
func TestDeepProvenanceBatchErrors(t *testing.T) {
	e, r, views := phyloEngine(t)
	if _, err := e.DeepProvenanceBatch(context.Background(), r.ID(), views["admin"],
		[]string{"d447", "nope"}, 2); !errors.Is(err, warehouse.ErrUnknownData) {
		t.Fatalf("batch with bad id: %v", err)
	}
	out, err := e.DeepProvenanceBatch(context.Background(), r.ID(), views["admin"], nil, 4)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v %v", out, err)
	}
	// Foreign view fails every query with ErrForeignView.
	foreign := core.UAdmin(spec.New("other"))
	if _, err := e.DeepProvenanceBatch(context.Background(), r.ID(), foreign,
		[]string{"d447"}, 1); !errors.Is(err, ErrForeignView) {
		t.Fatalf("foreign view: %v", err)
	}
}

// TestServeConcurrentlyCancellation pins cancellation of the concurrent
// worker pool: under a context cancelled before serving, every query is
// skipped with context.Canceled and no answer, and both batch entry points
// fail with the context's error.
func TestServeConcurrentlyCancellation(t *testing.T) {
	e, r, views := phyloEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before serving: every query must be skipped
	ids := make([]string, 64)
	for i := range ids {
		ids[i] = "d447"
	}
	var mu sync.Mutex
	seen := make([]bool, len(ids))
	e.serve(ctx, r.ID(), views["admin"], ids, 4, func(i int, a *Answer, err error) {
		mu.Lock()
		defer mu.Unlock()
		if seen[i] {
			t.Errorf("query %d reported twice", i)
		}
		seen[i] = true
		if !errors.Is(err, context.Canceled) {
			t.Errorf("query %d: err = %v, want context.Canceled", i, err)
		}
		if a != nil {
			t.Errorf("query %d returned an answer after cancellation", i)
		}
	})
	for i, ok := range seen {
		if !ok {
			t.Fatalf("query %d never reported", i)
		}
	}
	if _, err := e.DeepProvenanceBatch(ctx, r.ID(), views["admin"], []string{"d447", "d413"}, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("DeepProvenanceBatch on cancelled ctx: %v", err)
	}
	if _, err := e.DeepAnswerBatch(ctx, r.ID(), views["admin"], []string{"d447", "d413"}, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("DeepAnswerBatch on cancelled ctx: %v", err)
	}
}

// TestConcurrentMappingMemoization hammers the engine's view→mapping cache
// from many goroutines across several views at once; under -race this
// pins the goroutine-safety of the memoization, and the results must all
// agree with a fresh engine's.
func TestConcurrentMappingMemoization(t *testing.T) {
	e, r, views := phyloEngine(t)
	fresh, _, _ := phyloEngine(t)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		for name := range views {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				res, err := e.DeepProvenance(r.ID(), views[name], "d447")
				if err != nil {
					t.Errorf("view %s: %v", name, err)
					return
				}
				want, err := fresh.DeepProvenance(r.ID(), views[name], "d447")
				if err != nil {
					t.Errorf("fresh view %s: %v", name, err)
					return
				}
				if res.NumSteps() != want.NumSteps() || res.NumData() != want.NumData() {
					t.Errorf("view %s: concurrent answer differs (%d/%d vs %d/%d)",
						name, res.NumSteps(), res.NumData(), want.NumSteps(), want.NumData())
				}
			}(name)
		}
	}
	wg.Wait()
}

// TestBatchWorkerClamping checks worker-count edge cases: zero (GOMAXPROCS
// default), negative, and more workers than queries all serve correctly.
func TestBatchWorkerClamping(t *testing.T) {
	e, r, views := phyloEngine(t)
	for _, workers := range []int{0, -3, 1, 1000} {
		got, err := e.DeepProvenanceBatch(context.Background(), r.ID(), views["joe"],
			[]string{"d447", "d413"}, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 2 || got[0].Root != "d447" || got[1].Root != "d413" {
			t.Fatalf("workers=%d: wrong results %+v", workers, got)
		}
	}
}
