package repro_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/run"
	"repro/internal/warehouse"
)

// heapPart is the runs of one generated specification, as the benchmark's
// corpora list them (benchmark/workloads.go).
type heapPart struct {
	class gen.WorkflowClass
	kind  gen.RunClass
	runs  int
}

// heapShape is one worker of a two-shard benchmark deployment: the runs the
// ring places on shard 0 of a workload's corpus, up to the first half of its
// last part (generating a part's runs in order is what keeps a later part's
// runs the corpus's, so only the last part is cut short), and the ceiling,
// in MB, of each structure TestWorkerHeap measures (0: not measured on this
// shape).
type heapShape struct {
	name     string
	seed     int64
	parts    []heapPart
	switches bool // the tape re-reads each closure under six other views
	ceiling  [5]float64
}

// heapRows names the structures, in the order TestWorkerHeap adds them.
var heapRows = [5]string{"runs", "token tables", "UAdmin mappings", "other 6 views' mappings", "closure cache (1,024)"}

// TestWorkerHeap prints what a worker holds, structure by structure, for
// the workers of two benchmark workloads: cold-deep (every key distinct,
// UAdmin only) and view-switch (each closure re-read under six other views).
// Each shape is shard 0 of its corpus (see heapShape), opened from a v3
// snapshot, and each structure is the live heap it adds after GC: the runs
// first touched, their token tables, a UAdmin mapping per run, the six other
// views' mappings per run, all built through Warehouse.Mapping, and a full
// closure cache. Each has a ceiling, and the mapping and closure memos'
// own counts (Stats().Mappings, Stats().Closures) must be within 15% of
// their rows; `make heap` prints the table. A mapping that copied the run's producer
// column, a closure that kept a data bitset, or token tables that kept
// offsets of their own exceed theirs.
func TestWorkerHeap(t *testing.T) {
	shapes := []heapShape{
		{name: "cold-deep", seed: 11, parts: []heapPart{{gen.Class4(), gen.Large(), 32}},
			ceiling: [5]float64{0.46, 0.62, 0.38, 0, 0.55}},
		{name: "view-switch", seed: 5, parts: []heapPart{{gen.Class3(), gen.Medium(), 16}, {gen.Class4(), gen.Large(), 16}},
			switches: true, ceiling: [5]float64{0.32, 0.42, 0.44, 0.8, 0.38}},
	}
	ring, err := cluster.NewRing(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shapes {
		held, counted, runs := workerHeap(t, sh, ring)
		t.Logf("%s worker (%d of the corpus's %d runs, generator seed %d):", sh.name, runs, sh.runs(), sh.seed)
		for i, row := range heapRows {
			if sh.ceiling[i] == 0 {
				continue
			}
			t.Logf("  %-24s %5.2f MB  (ceiling %.2f)", row, held[i], sh.ceiling[i])
			if held[i] > sh.ceiling[i] {
				t.Errorf("%s: %s hold %.2f MB, ceiling %.2f", sh.name, row, held[i], sh.ceiling[i])
			}
		}
		// What each memo says it holds is what it holds, within 15%: a byte
		// bound on a memo would go by that figure.
		for _, c := range []struct {
			row, field  string
			held, count float64
		}{
			{"mappings, counted", "Mappings", held[2] + held[3], counted[0]},
			{"closure cache, counted", "Closures", held[4], counted[1]},
		} {
			t.Logf("  %-24s %5.2f MB  (Stats().%s.Bytes, within 15%% of %.2f)", c.row, c.count, c.field, c.held)
			if c.count < c.held*0.85 || c.count > c.held*1.15 {
				t.Errorf("%s: the %s memo counts %.3f MB and holds %.3f MB; want within 15%%", sh.name, c.field, c.count, c.held)
			}
		}
	}
}

func (sh heapShape) runs() int {
	n := 0
	for _, p := range sh.parts {
		n += p.runs
	}
	return n
}

// workerHeap builds the shape's corpus as the benchmark generates it, keeps
// the runs the ring places on shard 0, and measures each structure. counted
// is what the warehouse's mapping memo and its full closure cache report
// they hold, in MB.
func workerHeap(t *testing.T, sh heapShape, ring *cluster.Ring) (held [5]float64, counted [2]float64, runs int) {
	t.Helper()
	g := gen.NewGenerator(sh.seed)
	src := warehouse.New(0)
	var mine []heapRun
	for pi, p := range sh.parts {
		s := g.Workflow(p.class, fmt.Sprintf("wf%d-%s", pi, p.class.Name))
		views := []*core.UserView{core.UAdmin(s)}
		lists := [][]string{gen.UBioRelevant(s)}
		for _, pct := range []int{10, 30, 50, 70} { // the corpus's relevant lists
			lists = append(lists, g.RandomRelevant(s, pct))
		}
		for _, rel := range lists {
			v, err := core.BuildRelevant(s, rel)
			if err != nil {
				t.Fatal(err)
			}
			views = append(views, v)
		}
		bb, err := core.UBlackBox(s)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, bb)
		if err := src.RegisterSpec(s); err != nil {
			t.Fatal(err)
		}
		n := p.runs
		if pi == len(sh.parts)-1 {
			n /= 2
		}
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("%s-%s-r%02d", s.Name(), p.kind.Name, i)
			r, _, err := g.Run(s, p.kind, id)
			if err != nil {
				t.Fatal(err)
			}
			if ring.Place(id) != 0 {
				continue
			}
			if err := src.LoadRun(r); err != nil {
				t.Fatal(err)
			}
			sr := heapRun{id: id, views: views}
			for _, d := range r.AllData() {
				if !r.IsExternal(d) {
					sr.data = append(sr.data, d)
				}
			}
			mine = append(mine, sr)
		}
	}
	path := filepath.Join(t.TempDir(), sh.name+".v3")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SaveV3(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	src = nil
	w, err := warehouse.OpenV3(path, 0, warehouse.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	live := func() float64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // and what sync.Pools held
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / 1e6
	}
	rs := make([]*run.Run, len(mine))
	stages := [5]func(){
		func() {
			for i, sr := range mine {
				if rs[i], err = w.Run(sr.id); err != nil {
					t.Fatal(err)
				}
			}
		},
		func() {
			for _, r := range rs {
				r.Index().Tokens()
			}
		},
		func() { buildMappings(t, w, rs, mine, 0, 1) },
		func() {
			if sh.switches {
				buildMappings(t, w, rs, mine, 1, 7)
			}
			counted[0] = float64(w.Stats().Mappings.Bytes) / 1e6
		},
		func() {
			// 1,024 distinct (run, data) keys, runs in turn, each run's
			// data from its last produced object back.
			for k, j := 0, 1; k < 1024; j++ {
				for i := 0; i < len(rs) && k < 1024; i++ {
					if data := mine[i].data; j <= len(data) {
						if _, _, err := w.DeepProvenanceObservedCtx(context.Background(), rs[i], data[len(data)-j]); err != nil {
							t.Fatal(err)
						}
						k++
					}
				}
			}
			st := w.Stats().Closures
			if st.Entries != 1024 {
				t.Fatalf("closure cache holds %d entries, want 1024", st.Entries)
			}
			counted[1] = float64(st.Bytes) / 1e6
		},
	}
	before := live()
	for i, stage := range stages {
		stage()
		after := live()
		held[i] = after - before
		before = after
	}
	runtime.KeepAlive(rs)
	return held, counted, len(mine)
}

// heapRun is one run of a worker's shard: its id, the views the tape asks
// it under (UAdmin, the ubio view, the 10-70% relevant lists, blackbox),
// and its produced data in natural order.
type heapRun struct {
	id    string
	views []*core.UserView
	data  []string
}

// buildMappings has the warehouse build, and keep, each run's mappings
// under its views lo..hi-1.
func buildMappings(t *testing.T, w *warehouse.Warehouse, rs []*run.Run, mine []heapRun, lo, hi int) {
	t.Helper()
	for i, r := range rs {
		for _, v := range mine[i].views[lo:hi] {
			if _, err := w.Mapping(nil, r, v); err != nil {
				t.Fatal(err)
			}
		}
	}
}
