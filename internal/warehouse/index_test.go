package warehouse

import (
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/gen"
	"repro/internal/run"
	"repro/internal/spec"
)

// ConnectBy is the warehouse's test oracle for recursion: Oracle's CONNECT
// BY starts from a set of rows (START WITH) and repeatedly joins each
// frontier row to its parents (CONNECT BY PRIOR). This is the same fixpoint
// over an arbitrary parent function, returning every reached key exactly
// once in BFS order (start keys first).
func ConnectBy(start []string, parents func(string) []string) []string {
	seen := make(map[string]bool, len(start))
	var order []string
	for _, s := range start {
		if !seen[s] {
			seen[s] = true
			order = append(order, s)
		}
	}
	for i := 0; i < len(order); i++ {
		for _, p := range parents(order[i]) {
			if !seen[p] {
				seen[p] = true
				order = append(order, p)
			}
		}
	}
	return order
}

// oracleRelations is a run's string-keyed relations, spelled out once per
// run with the run's string accessors, so that each step of the oracle's
// CONNECT BY is a map lookup: a key's parents backward (provenance) and its
// children forward (derivation). Bipartite keys: "d:" prefixes data, "s:"
// prefixes steps.
type oracleRelations struct{ back, fwd map[string][]string }

func relationsOf(r *run.Run) oracleRelations {
	rel := oracleRelations{back: map[string][]string{}, fwd: map[string][]string{}}
	for _, d := range r.AllData() {
		if p, _ := r.Producer(d); p != "" {
			rel.back["d:"+d] = []string{"s:" + p}
		}
		for _, s := range r.Consumers(d) {
			rel.fwd["d:"+d] = append(rel.fwd["d:"+d], "s:"+s)
		}
	}
	for _, s := range r.StepIDs() {
		for _, x := range r.InputsOf(s) {
			rel.back["s:"+s] = append(rel.back["s:"+s], "d:"+x)
		}
		for _, x := range r.OutputsOf(s) {
			rel.fwd["s:"+s] = append(rel.fwd["s:"+s], "d:"+x)
		}
	}
	return rel
}

// oracleClosure is the reference closure the integer traversals are held
// to: the paper's CONNECT BY over the run's string-keyed relations,
// backward (provenance) or forward (derivation).
func (rel oracleRelations) oracleClosure(d string, forward bool) (steps, data map[string]bool) {
	next := rel.back
	if forward {
		next = rel.fwd
	}
	steps, data = map[string]bool{}, map[string]bool{}
	for _, key := range ConnectBy([]string{"d:" + d}, func(key string) []string { return next[key] }) {
		if key[0] == 's' {
			steps[key[2:]] = true
		} else {
			data[key[2:]] = true
		}
	}
	return steps, data
}

// closureSets spells a closure's members out as string sets.
func closureSets(c *Closure) (steps, data map[string]bool) {
	ix, stepBits, dataBits := c.Bits()
	steps, data = map[string]bool{}, map[string]bool{}
	stepBits.Each(func(s int32) { steps[ix.StepName(s)] = true })
	dataBits.Each(func(d int32) { data[ix.DataName(d)] = true })
	return steps, data
}

// dataSet is the data half of closureSets.
func dataSet(c *Closure) map[string]bool {
	_, data := closureSets(c)
	return data
}

// testClosure builds a closure with exactly the given steps, over the index
// of a tiny real run that has those steps and data objects, the data read by
// the last step — what the cache tests hand the cache in place of a computed
// closure.
func testClosure(root string, steps, data []string) *Closure {
	b := run.NewBuilder("test-closure", "test-closure")
	to := spec.Output
	for _, s := range steps {
		if err := b.AddStep(s, "M"); err != nil {
			panic(err)
		}
		to = s
	}
	if err := b.AddFlow(spec.Input, to, data); err != nil {
		panic(err)
	}
	r, err := b.Build()
	if err != nil {
		panic(err)
	}
	ix := r.Index()
	rootID, _ := ix.DataID(root)
	c := &Closure{Root: root, ix: ix, root: rootID, stepBits: bitset.New(ix.NumSteps())}
	for _, s := range steps {
		id, _ := ix.StepID(s)
		c.stepBits.Add(id)
	}
	return c
}

// generatedWarehouse holds one generated run of the given classes (seed 11).
func generatedWarehouse(t testing.TB, class gen.WorkflowClass, rc gen.RunClass) (*Warehouse, *run.Run) {
	t.Helper()
	g := gen.NewGenerator(11)
	s := g.Workflow(class, "closure-"+class.Name)
	r, _, err := g.Run(s, rc, "gen")
	if err != nil {
		t.Fatal(err)
	}
	w := New(0)
	if err := w.RegisterSpec(s); err != nil {
		t.Fatal(err)
	}
	if err := w.LoadRun(r); err != nil {
		t.Fatal(err)
	}
	return w, r
}

// TestIndexedClosureMatchesOracle compares the bitset closure against the
// CONNECT BY oracle in both directions: for every data object of Figure 2,
// and for every 7th data object, an external input and a final output of a
// Class3 run (wide fan-in and fan-out) and a Class4-large run (depth).
func TestIndexedClosureMatchesOracle(t *testing.T) {
	// Each direction is a parallel subtest over every root.
	check := func(t *testing.T, w *Warehouse, r *run.Run, roots []string) {
		rel := relationsOf(r)
		for name, forward := range map[string]bool{"provenance": false, "derivation": true} {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				query := w.DeepProvenance
				if forward {
					query = w.DeepDerivation
				}
				for _, d := range roots {
					c, err := query(r.ID(), d)
					if err != nil {
						t.Fatalf("%s(%s): %v", name, d, err)
					}
					gotSteps, gotData := closureSets(c)
					wantSteps, wantData := rel.oracleClosure(d, forward)
					if !reflect.DeepEqual(gotSteps, wantSteps) {
						t.Fatalf("%s(%s): steps differ\nindexed %v\noracle  %v", name, d, gotSteps, wantSteps)
					}
					if !reflect.DeepEqual(gotData, wantData) {
						t.Fatalf("%s(%s): data differ\nindexed %v\noracle  %v", name, d, gotData, wantData)
					}
				}
			})
		}
	}
	t.Run("figure2", func(t *testing.T) {
		t.Parallel()
		w := loadedWarehouse(t)
		r, _ := w.Run("fig2")
		check(t, w, r, r.AllData())
	})
	for _, tc := range []struct {
		class gen.WorkflowClass
		rc    gen.RunClass
	}{{gen.Class3(), gen.Large()}, {gen.Class4(), gen.Large()}} {
		t.Run(tc.class.Name+"-"+tc.rc.Name, func(t *testing.T) {
			t.Parallel()
			w, r := generatedWarehouse(t, tc.class, tc.rc)
			finals := r.FinalOutputs()
			roots := []string{r.ExternalInputs()[0], finals[len(finals)-1]}
			for i, d := range r.AllData() {
				if i%7 == 0 {
					roots = append(roots, d)
				}
			}
			check(t, w, r, roots)
		})
	}
}

// markingClosure is the traversal a Closure was computed by while it kept a
// data set: it marks each popped step's inputs (backward) or outputs
// (forward) in passing. It is the oracle of the data a Closure derives from
// its steps.
func markingClosure(ix *run.Index, root int32, forward bool) (stepBits, dataBits bitset.Set) {
	stepBits, dataBits = bitset.New(ix.NumSteps()), bitset.New(ix.NumData())
	dataBits.Add(root)
	var stack []int32
	push := func(s int32) {
		if s >= 0 && !stepBits.Has(s) {
			stepBits.Add(s)
			stack = append(stack, s)
		}
	}
	if forward {
		for _, s := range ix.ConsumersOf(root) {
			push(s)
		}
	} else {
		push(ix.Producer(root))
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if forward {
			for _, out := range ix.OutputsOf(s) {
				dataBits.Add(out)
				for _, c := range ix.ConsumersOf(out) {
					push(c)
				}
			}
			continue
		}
		for _, in := range ix.InputsOf(s) {
			dataBits.Add(in)
			push(ix.Producer(in))
		}
	}
	return stepBits, dataBits
}

// TestDerivedDataMatchesMarking: a closure's data membership, derived from
// its steps, is the marking traversal's data set for every data id, in both
// directions, over Figure 2 (every root) and every class's large run (every
// 5th root): HasDataID per id, and the set Bits spells out.
func TestDerivedDataMatchesMarking(t *testing.T) {
	runs := []*run.Run{run.Figure2()}
	for _, class := range gen.Classes() {
		_, r := generatedWarehouse(t, class, gen.Large())
		runs = append(runs, r)
	}
	for _, r := range runs {
		ix := r.Index()
		for root := int32(0); root < int32(ix.NumData()); root++ {
			if r.ID() != "fig2" && root%5 != 0 {
				continue
			}
			for _, forward := range []bool{false, true} {
				c := indexedProvenanceClosure(ix, ix.DataName(root))
				if forward {
					c = indexedDerivationClosure(ix, ix.DataName(root))
				}
				wantSteps, wantData := markingClosure(ix, root, forward)
				_, steps, data := c.Bits()
				if !slices.Equal(steps, wantSteps) || !slices.Equal(data, wantData) {
					t.Fatalf("%s root %s forward=%v: Bits differ from the marking traversal", r.ID(), ix.DataName(root), forward)
				}
				if c.NumData() != wantData.Count() {
					t.Fatalf("%s root %s forward=%v: NumData = %d, marking has %d", r.ID(), ix.DataName(root), forward, c.NumData(), wantData.Count())
				}
				for d := int32(0); d < int32(ix.NumData()); d++ {
					if c.HasDataID(d) != wantData.Has(d) {
						t.Fatalf("%s root %s forward=%v: HasDataID(%s) = %v, marking says %v",
							r.ID(), ix.DataName(root), forward, ix.DataName(d), c.HasDataID(d), wantData.Has(d))
					}
				}
			}
		}
	}
}

// TestColdClosureAllocs pins what a cold closure of a Class4-large run may
// allocate: its step bitset and the Closure. A worklist of data ids outgrows
// its buffer on such a run (ten regrowths, ~100 KB of garbage per query); the
// step worklist must not, and no data bitset is kept.
func TestColdClosureAllocs(t *testing.T) {
	_, r := generatedWarehouse(t, gen.Class4(), gen.Large())
	ix := r.Index()
	finals := r.FinalOutputs()
	out, in := finals[len(finals)-1], r.ExternalInputs()[0]
	for name, closure := range map[string]func() *Closure{
		"provenance": func() *Closure { return indexedProvenanceClosure(ix, out) },
		"derivation": func() *Closure { return indexedDerivationClosure(ix, in) },
	} {
		if n := closure().Size(); n < 1000 {
			t.Fatalf("%s closure has %d members: not a deep run", name, n)
		}
		if allocs := testing.AllocsPerRun(20, func() { closure() }); allocs > 2 {
			t.Errorf("cold %s closure: %.0f allocations, want <= 2", name, allocs)
		}
		c := closure()
		if allocs := testing.AllocsPerRun(20, func() { c.Size() }); allocs != 0 {
			t.Errorf("%s closure's Size: %.0f allocations, want 0", name, allocs)
		}
	}
}

// TestClosureFacade pins the facade invariants: Has* agrees with the member
// sets, counts agree, the cache hands every caller the same immutable
// instance, and a closure is interned over the run's own index.
func TestClosureFacade(t *testing.T) {
	w := loadedWarehouse(t)
	c, err := w.DeepProvenance("fig2", "d447")
	if err != nil {
		t.Fatal(err)
	}
	steps, data := closureSets(c)
	if len(steps) != c.NumSteps() || len(data) != c.NumData() {
		t.Fatalf("member sets disagree with counts: %d/%d vs %d/%d",
			len(steps), len(data), c.NumSteps(), c.NumData())
	}
	for s := range steps {
		if !c.HasStep(s) {
			t.Fatalf("HasStep(%s) false but a member", s)
		}
	}
	for d := range data {
		if !c.HasData(d) {
			t.Fatalf("HasData(%s) false but a member", d)
		}
	}
	if c.HasStep("ghost") || c.HasData("ghost") {
		t.Fatal("facade invented members")
	}
	if c.Size() != c.NumSteps()+c.NumData() {
		t.Fatalf("Size = %d", c.Size())
	}
	r, err := w.Run("fig2")
	if err != nil {
		t.Fatal(err)
	}
	if ix, _, _ := c.Bits(); ix != r.Index() {
		t.Fatal("closure is not over the run's index")
	}
	c2, err := w.DeepProvenance("fig2", "d447")
	if err != nil || c2 != c {
		t.Fatalf("cache hit returned a different instance (err %v)", err)
	}
}

// figure2As rebuilds the Figure 2 run under a different id via its log.
func figure2As(t *testing.T, id string) *run.Run {
	t.Helper()
	events, err := run.Figure2().ToLog()
	if err != nil {
		t.Fatal(err)
	}
	r, err := run.FromLog(id, "phylogenomics", events)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestIndexDroppedWithRun: DropRun discards the index along with the run.
func TestIndexDroppedWithRun(t *testing.T) {
	w := loadedWarehouse(t)
	if r, err := w.Run("fig2"); err != nil || r.Index() == nil {
		t.Fatalf("no index after load (err %v)", err)
	}
	if err := w.DropRun("fig2"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run("fig2"); !errors.Is(err, ErrUnknownRun) {
		t.Fatalf("run survived DropRun: %v", err)
	}
	if st := w.Stats(); st.Index.IndexedRuns != 0 || st.Index.CSRBytes != 0 {
		t.Fatalf("stats still count dropped index: %+v", st.Index)
	}
}

// TestIndexStatsSurface: Stats carries the aggregate index footprint and
// renders it.
func TestIndexStatsSurface(t *testing.T) {
	w := loadedWarehouse(t)
	st := w.Stats()
	if st.Index.IndexedRuns != 1 {
		t.Fatalf("IndexedRuns = %d", st.Index.IndexedRuns)
	}
	if st.Index.InternedSteps != st.Steps || st.Index.InternedData != st.DataObjects {
		t.Fatalf("interned counts diverge from catalog counts: %+v vs steps=%d data=%d",
			st.Index, st.Steps, st.DataObjects)
	}
	if st.Index.CSRBytes <= 0 || st.Index.CSRBytes%4 != 0 {
		t.Fatalf("CSR footprint: %+v", st.Index)
	}
	// One word for Figure 2's 10 steps: a closure keeps no data set.
	if st.Index.ClosureWords != 1 {
		t.Fatalf("ClosureWords = %d, want 1", st.Index.ClosureWords)
	}
	for _, want := range []string{"index[runs=1", "csr=", "closure="} {
		if !contains(st.String(), want) {
			t.Fatalf("Stats.String() = %q missing %q", st.String(), want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestConcurrentIndexedClosures hammers the indexed BFS and the shared
// cached closures from many goroutines — reads of the frozen bitsets must
// be race-free (run under -race).
func TestConcurrentIndexedClosures(t *testing.T) {
	w := loadedWarehouse(t)
	r, _ := w.Run("fig2")
	data := r.AllData()
	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < len(data); j++ {
				d := data[(j+g*len(data)/goroutines)%len(data)]
				c, err := w.DeepProvenance("fig2", d)
				if err != nil {
					t.Errorf("query %s: %v", d, err)
					return
				}
				if !c.HasData(d) {
					t.Errorf("closure of %s lost its root", d)
					return
				}
				// Alternate access styles over the one shared instance.
				if g%2 == 0 {
					_, _ = closureSets(c)
				} else {
					_ = c.NumSteps() + c.NumData()
				}
			}
		}(g)
	}
	wg.Wait()
}
