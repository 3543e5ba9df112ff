package provenance

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
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

// concurrentBatches runs DeepProvenanceBatch on callers goroutines at
// once — the way net/http serves concurrent /v1/batch requests — and
// returns each caller's results and error.
func concurrentBatches(ctx context.Context, e *Engine, runID string, v *core.UserView, ids []string, callers int) ([][]*Result, []error) {
	out, errs := make([][]*Result, callers), make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c], errs[c] = e.DeepProvenanceBatch(ctx, runID, v, ids)
		}(c)
	}
	wg.Wait()
	return out, errs
}

// TestConcurrentBatchMatchesSequentialPhylo pins the batch API's core
// property on the paper's running example: for every view and every data
// object of Figure 2, DeepProvenanceBatch returns exactly the results of
// sequential DeepProvenance calls, however many batches run at once.
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
		for _, callers := range []int{1, 4} {
			got, errs := concurrentBatches(context.Background(), e, r.ID(), v, data, callers)
			for c := range got {
				if errs[c] != nil {
					t.Fatalf("batch %s, caller %d of %d: %v", name, c, callers, errs[c])
				}
				if !reflect.DeepEqual(got[c], want) {
					t.Fatalf("view %s, caller %d of %d: batch differs from sequential", name, c, callers)
				}
			}
		}
	}
}

// TestConcurrentBatchMatchesSequentialSynthetic repeats the equivalence
// property on generated workloads: every Table I workflow class, a small
// run, UBio view — the shape the evaluation queries — with four batches
// of the whole run at once.
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
		w.ResetCache()
		got, errs := concurrentBatches(context.Background(), e, r.ID(), v, data, 4)
		for c := range got {
			if errs[c] != nil {
				t.Fatalf("%s batch, caller %d: %v", class.Name, c, errs[c])
			}
			if !reflect.DeepEqual(got[c], want) {
				t.Fatalf("%s, caller %d: batch results differ from sequential", class.Name, c)
			}
		}
	}
}

// TestConcurrentBatchComputesOnce: from a cold closure cache, batches
// compute exactly one closure per distinct data id, however often an id
// repeats and however many batches race for it.
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
	for _, callers := range []int{1, 4, 16} {
		w.ResetCache()
		_, errs := concurrentBatches(context.Background(), e, r.ID(), v, ids, callers)
		for c, err := range errs {
			if err != nil {
				t.Fatalf("%d callers, caller %d: %v", callers, c, err)
			}
		}
		if c := w.CacheCounters(); c.Computes != int64(len(distinct)) {
			t.Fatalf("%d callers: %d closure computes for %d distinct ids (%+v)", callers, c.Computes, len(distinct), c)
		}
	}
}

// TestDeepProvenanceBatchErrors checks the fail-fast contract, the empty
// batch and a batch over a foreign view.
func TestDeepProvenanceBatchErrors(t *testing.T) {
	e, r, views := phyloEngine(t)
	if _, err := e.DeepProvenanceBatch(context.Background(), r.ID(), views["admin"],
		[]string{"d447", "nope"}); !errors.Is(err, warehouse.ErrUnknownData) {
		t.Fatalf("batch with bad id: %v", err)
	}
	out, err := e.DeepProvenanceBatch(context.Background(), r.ID(), views["admin"], nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v %v", out, err)
	}
	// Foreign view fails every query with ErrForeignView.
	foreign := core.UAdmin(spec.New("other"))
	if _, err := e.DeepProvenanceBatch(context.Background(), r.ID(), foreign,
		[]string{"d447"}); !errors.Is(err, ErrForeignView) {
		t.Fatalf("foreign view: %v", err)
	}
}

// cancelAfter is a context whose Err reports context.Canceled from its
// n+1st call on: a cancellation that lands at a known point of a batch.
type cancelAfter struct {
	context.Context
	n atomic.Int32
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestServeConcurrentlyCancellation pins cancellation of batches served
// concurrently: under a context cancelled before serving, every caller's
// batch fails with context.Canceled at its first id and no closure is
// looked up; a cancellation that lands mid-batch stops it before the next
// id, and the answers already computed are all it cost.
func TestServeConcurrentlyCancellation(t *testing.T) {
	e, r, views := phyloEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before serving: every query must be skipped
	ids := make([]string, 64)
	for i := range ids {
		ids[i] = "d447"
	}
	out, errs := concurrentBatches(ctx, e, r.ID(), views["admin"], ids, 8)
	for c, err := range errs {
		if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "batch query 0 (d447)") {
			t.Errorf("caller %d: err = %v, want query 0 context.Canceled", c, err)
		}
		if out[c] != nil {
			t.Errorf("caller %d returned answers after cancellation", c)
		}
	}
	if _, err := e.DeepAnswerBatch(ctx, r.ID(), views["admin"], []string{"d447", "d413"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("DeepAnswerBatch on cancelled ctx: %v", err)
	}
	if c := e.Warehouse().CacheCounters(); c.Hits+c.Misses+c.SharedWaits != 0 {
		t.Fatalf("cancelled batches looked up closures: %+v", c)
	}

	mid := &cancelAfter{Context: context.Background()}
	mid.n.Store(2)
	_, err := e.DeepAnswerBatch(mid, r.ID(), views["admin"], []string{"d447", "d413", "d408", "d311"})
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "batch query 2 (d408)") {
		t.Fatalf("mid-batch cancellation: %v, want query 2 context.Canceled", err)
	}
	if c := e.Warehouse().CacheCounters(); c.Misses != 2 || c.Hits+c.SharedWaits != 0 {
		t.Fatalf("mid-batch cancellation computed %d closures, want the 2 before it: %+v", c.Misses, c)
	}
}

// TestConcurrentMappingMemoization hammers the warehouse's view→mapping cache
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
