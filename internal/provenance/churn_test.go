package provenance

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/warehouse"
	"repro/internal/wflog"
)

// TestChurnHeapLevels: what a worker holds stays level under churn. 5,000
// queries, each under a relevant list no query asked before, run against
// four small runs while a run is dropped and re-ingested every 25 queries
// (200 cycles). Every memo is bounded (views and mappings by the warehouse's memoBound,
// closures by the cache's capacity) and forgets a dropped run, so the live
// heap after the last thousand lists is within 10% of the heap after the
// first thousand; a memo that grew with every key, or kept what a dropped
// run left, would not be.
func TestChurnHeapLevels(t *testing.T) {
	const lists, every = 5000, 25
	g := gen.NewGenerator(21)
	s := g.Workflow(gen.Class2(), "churn")
	modules := s.ModuleNames()
	if len(modules) < 13 {
		t.Fatalf("%d modules give fewer than %d relevant lists", len(modules), lists)
	}
	w := warehouse.New(0)
	if err := w.RegisterSpec(s); err != nil {
		t.Fatal(err)
	}
	type churnRun struct {
		id     string
		events []wflog.Event
		data   []string
	}
	runs := make([]churnRun, 4)
	for i := range runs {
		id := fmt.Sprintf("churn-%d", i)
		r, events, err := g.Run(s, gen.Small(), id)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.LoadRun(r); err != nil {
			t.Fatal(err)
		}
		runs[i] = churnRun{id: id, events: events}
		for _, d := range r.AllData() {
			if !r.IsExternal(d) {
				runs[i].data = append(runs[i].data, d)
			}
		}
	}
	e := NewEngine(w)
	live := func() float64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // and what sync.Pools held
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	// List i is the modules set in a 20-bit mask, (i+1) times an odd number
	// modulo 2^20: distinct masks for distinct i.
	var first float64
	for i := 0; i < lists; i++ {
		mask := uint32(i+1) * 0x9E3779B1 & (1<<20 - 1)
		var relevant []string
		for b, m := range modules {
			if b < 20 && mask&(1<<b) != 0 {
				relevant = append(relevant, m)
			}
		}
		cr := &runs[i%len(runs)]
		v, err := w.ResolveView(cr.id, "", relevant)
		if err != nil {
			t.Fatalf("list %d %v: %v", i, relevant, err)
		}
		if _, err := e.DeepAnswerCtx(context.Background(), cr.id, v, cr.data[(i/len(runs))%len(cr.data)]); err != nil {
			t.Fatal(err)
		}
		if (i+1)%every == 0 {
			cr := &runs[(i/every)%len(runs)]
			if err := w.DropRun(cr.id); err != nil {
				t.Fatal(err)
			}
			if err := w.LoadLog(cr.id, s.Name(), cr.events); err != nil {
				t.Fatal(err)
			}
		}
		if i+1 == 1000 {
			first = live()
		}
	}
	last := live()
	st := w.Stats()
	t.Logf("heap after 1,000 lists %.2f MB, after %d %.2f MB (%+.1f%%); closures %+v, mappings %+v",
		first/1e6, lists, last/1e6, 100*(last-first)/first, st.Closures, st.Mappings)
	if last > 1.1*first || last < 0.9*first {
		t.Fatalf("heap after %d lists is %.2f MB, %.2fx the %.2f MB after 1,000", lists, last/1e6, last/first, first/1e6)
	}
}

// TestConcurrentStatsDuringQueries: Stats reads the mapping memo while
// queries fill it, each under its own relevant list; under -race (make
// race) this is the check that a mapping is read only once built.
func TestConcurrentStatsDuringQueries(t *testing.T) {
	f := newFixture(t)
	modules := f.s.ModuleNames()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(modules); i += 4 {
				v, err := f.e.Warehouse().ResolveView("fig2", "", modules[i:i+1])
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := f.e.DeepAnswerCtx(context.Background(), "fig2", v, "d447"); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			f.e.Warehouse().Stats()
		}
	}()
	wg.Wait()
	<-done
	if m := f.e.Warehouse().Stats().Mappings; m.Entries != len(modules) || m.Bytes <= 0 {
		t.Fatalf("after one query per single-module view of %d: mappings %+v", len(modules), m)
	}
}
