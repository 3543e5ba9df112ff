package composite

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/run"
	"repro/internal/spec"
)

// The reference implementation Build is held to: the string-world
// construction this package shipped before Build moved onto the run index.
// It shares nothing with the production path — steps are grouped in a
// map[string][]string, components come from graph.InducedSubgraph and
// WeaklyConnectedComponents over string nodes, the order from a TopoSort of
// the run's string graph, and inputs and outputs from map[string]bool sets.
//
// graph.TopoSort breaks ties by node insertion order, and runGraph adds the
// steps in natural order, so on a valid run the oracle's order is
// Index.TopoOrder however the run was loaded.

// runGraph is the run as a string graph, its nodes added INPUT, OUTPUT,
// then the steps in natural order, with the data on each edge.
func runGraph(r *run.Run) (*graph.Graph, map[[2]string][]string) {
	g := graph.New()
	g.AddNode(spec.Input)
	g.AddNode(spec.Output)
	for _, id := range r.StepIDs() {
		g.AddNode(id)
	}
	edgeData := make(map[[2]string][]string)
	for _, f := range r.Flows() {
		g.AddEdge(f.From, f.To)
		edgeData[[2]string{f.From, f.To}] = f.Data
	}
	return g, edgeData
}

// oracleBuild returns the composite executions of r under v in topological
// order.
func oracleBuild(r *run.Run, v *core.UserView) ([]*Execution, error) {
	byComp := make(map[string][]string)
	for _, st := range r.Steps() {
		comp, ok := v.CompositeOf(st.Module)
		if !ok {
			return nil, fmt.Errorf("%w: module %q of step %q not in view", ErrViewMismatch, st.Module, st.ID)
		}
		byComp[comp] = append(byComp[comp], st.ID)
	}
	g, edgeData := runGraph(r)
	comps := make([]string, 0, len(byComp))
	for c := range byComp {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	var execs []*Execution
	for _, comp := range comps {
		keep := make(map[string]bool, len(byComp[comp]))
		for _, id := range byComp[comp] {
			keep[id] = true
		}
		for _, cc := range g.InducedSubgraph(keep).WeaklyConnectedComponents() {
			sortNatural(cc)
			execs = append(execs, &Execution{Composite: comp, Steps: cc})
		}
	}
	topo, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("composite: run graph cyclic: %w", err)
	}
	pos := make(map[string]int, len(topo))
	for i, n := range topo {
		pos[n] = i
	}
	sort.SliceStable(execs, func(i, j int) bool {
		return pos[execs[i].Steps[0]] < pos[execs[j].Steps[0]]
	})
	ordinal := make(map[string]int)
	for _, e := range execs {
		if len(e.Steps) == 1 {
			e.ID = e.Steps[0]
		} else {
			ordinal[e.Composite]++
			e.ID = fmt.Sprintf("%s@%d", e.Composite, ordinal[e.Composite])
		}
		inSet := make(map[string]bool)
		outSet := make(map[string]bool)
		member := make(map[string]bool, len(e.Steps))
		for _, s := range e.Steps {
			member[s] = true
		}
		for _, s := range e.Steps {
			for _, p := range g.Predecessors(s) {
				if !member[p] {
					for _, d := range edgeData[[2]string{p, s}] {
						inSet[d] = true
					}
				}
			}
			for _, w := range g.Successors(s) {
				if !member[w] {
					for _, d := range edgeData[[2]string{s, w}] {
						outSet[d] = true
					}
				}
			}
		}
		e.Inputs = sortedNatural(inSet)
		e.Outputs = sortedNatural(outSet)
	}
	return execs, nil
}

// oracleEdges is the execution-level dataflow of the oracle's executions:
// every run edge re-labelled with the executions of its endpoints, the
// data accumulated per (from, to) pair in map[string]bool sets.
func oracleEdges(r *run.Run, execs []*Execution) []Edge {
	ofStep := make(map[string]string)
	for _, e := range execs {
		for _, s := range e.Steps {
			ofStep[s] = e.ID
		}
	}
	acc := make(map[[2]string]map[string]bool)
	g, edgeData := runGraph(r)
	g.EachEdge(func(u, w string) {
		from, to := u, w
		if u != spec.Input {
			from = ofStep[u]
		}
		if w != spec.Output {
			to = ofStep[w]
		}
		if from == to {
			return
		}
		key := [2]string{from, to}
		if acc[key] == nil {
			acc[key] = make(map[string]bool)
		}
		for _, d := range edgeData[[2]string{u, w}] {
			acc[key][d] = true
		}
	})
	keys := make([][2]string, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	var out []Edge
	for _, k := range keys {
		out = append(out, Edge{From: k[0], To: k[1], Data: sortedNatural(acc[k])})
	}
	return out
}

func sortedNatural(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sortNatural(out)
	return out
}

// sortNatural sorts ids with numeric suffixes numerically (d2 < d10).
func sortNatural(xs []string) {
	sort.Slice(xs, func(i, j int) bool { return lessNatural(xs[i], xs[j]) })
}

func lessNatural(a, b string) bool {
	pa, na := splitNat(a)
	pb, nb := splitNat(b)
	if pa != pb {
		return pa < pb
	}
	if na != nb {
		return na < nb
	}
	return a < b
}

func splitNat(s string) (string, int) {
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	// No digit suffix, or one too long to fit an int without overflow
	// (> 18 digits): fall back to plain string comparison.
	if i == len(s) || len(s)-i > 18 {
		return s, -1
	}
	n := 0
	for _, c := range s[i:] {
		n = n*10 + int(c-'0')
	}
	return s[:i], n
}

// TestSplitNatOverflow mirrors the provenance-side guard: suffixes longer
// than 18 digits fall back to string comparison instead of overflowing.
func TestSplitNatOverflow(t *testing.T) {
	big := "d" + strings.Repeat("9", 25)
	if prefix, n := splitNat(big); prefix != big || n != -1 {
		t.Fatalf("splitNat(%q) = (%q, %d), want string fallback", big, prefix, n)
	}
	if lessNatural(big, "d2") {
		t.Fatalf("%q sorted before d2: overflow wrapped negative", big)
	}
	xs := []string{big, "d10", "d2"}
	sortNatural(xs)
	if xs[0] != "d2" || xs[1] != "d10" || xs[2] != big {
		t.Fatalf("sorted = %v", xs)
	}
}

// sameAsOracle holds Build to the oracle on one (run, view): the same
// execution ids in the same order with the same steps, inputs and outputs
// (an empty set may be nil on one side) and the same execution-level edges,
// or the same refusal.
func sameAsOracle(t testing.TB, label string, r *run.Run, v *core.UserView) {
	t.Helper()
	want, wantErr := oracleBuild(r, v)
	m, err := Build(r, v)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: Build error %v, oracle error %v", label, err, wantErr)
	}
	if err != nil {
		return
	}
	got := m.Executions()
	if len(got) != len(want) {
		t.Fatalf("%s: %d executions, oracle has %d", label, len(got), len(want))
	}
	same := func(a, b []string) bool { return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b)) }
	for i, w := range want {
		g := got[i]
		if g.ID != w.ID || g.Composite != w.Composite ||
			!same(g.Steps, w.Steps) || !same(g.Inputs, w.Inputs) || !same(g.Outputs, w.Outputs) {
			t.Fatalf("%s: execution %d differs:\nBuild  %+v\noracle %+v", label, i, *g, *w)
		}
		if x, ok := m.Execution(w.ID); !ok || x != g {
			t.Fatalf("%s: Execution(%q) = %v, %v", label, w.ID, x, ok)
		}
		for _, s := range w.Steps {
			if id, ok := m.ExecutionOf(s); !ok || id != w.ID {
				t.Fatalf("%s: ExecutionOf(%q) = %q, %v, want %q", label, s, id, ok, w.ID)
			}
		}
	}
	if ge, we := m.Edges(), oracleEdges(r, want); !reflect.DeepEqual(ge, we) {
		t.Fatalf("%s: edges differ:\nBuild  %v\noracle %v", label, ge, we)
	}
	p := m.Projector()
	for d, want := range prodExecTable(p) {
		if got := p.ProducerExec(int32(d)); got != want {
			t.Fatalf("%s: ProducerExec(%s) = %d, the producer column says %d", label, r.Index().DataName(int32(d)), got, want)
		}
	}
}

// prodExecTable is the producer column a Projector kept before it read a
// data object's producing execution through the run's producer column: the
// oracle of ProducerExec. It is filled from the executions' member steps
// and what each step wrote, with -1 for external data.
func prodExecTable(p *Projector) []int32 {
	ix := p.Index()
	table := make([]int32, ix.NumData())
	for d := range table {
		table[d] = -1
	}
	for e := int32(0); int(e) < p.NumExecutions(); e++ {
		for _, s := range p.StepsOf(e) {
			for _, d := range ix.OutputsOf(s) {
				table[d] = e
			}
		}
	}
	return table
}

// TestBuildMatchesOraclePhylogenomics: the Figure 2 run under UAdmin, Joe's
// view, Mary's view and UBlackBox.
func TestBuildMatchesOraclePhylogenomics(t *testing.T) {
	s := spec.Phylogenomics()
	bb, err := core.UBlackBox(s)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]*core.UserView{
		"admin": core.UAdmin(s), "joe": joeView(t), "mary": maryView(t), "blackbox": bb,
	} {
		sameAsOracle(t, name, run.Figure2(), v)
	}
}

// TestBuildMatchesOracleGeneratedRuns: 200 generated runs covering every
// workflow class and every Table II run class (mostly small for runtime,
// with periodic medium and large instances) under UAdmin, the UBio view,
// UBlackBox and a random builder view.
func TestBuildMatchesOracleGeneratedRuns(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 24
	}
	g := gen.NewGenerator(777)
	rng := rand.New(rand.NewSource(778))
	classes := gen.Classes()
	for i := 0; i < trials; i++ {
		rc := gen.Small()
		switch {
		case i%50 == 20:
			rc = gen.Large()
		case i%10 == 5:
			rc = gen.Medium()
		}
		s := g.Workflow(classes[i%len(classes)], fmt.Sprintf("eq-%d", i))
		r, _, err := g.Run(s, rc, fmt.Sprintf("eq-%d-r", i))
		if err != nil {
			t.Fatal(err)
		}
		views := map[string]*core.UserView{"admin": core.UAdmin(s)}
		if v, err := core.UBlackBox(s); err == nil {
			views["blackbox"] = v
		}
		if v, err := core.BuildRelevant(s, gen.UBioRelevant(s)); err == nil {
			views["ubio"] = v
		}
		var rel []string
		for _, m := range s.ModuleNames() {
			if rng.Intn(3) == 0 {
				rel = append(rel, m)
			}
		}
		if v, err := core.BuildRelevant(s, rel); err == nil {
			views["random"] = v
		}
		for name, v := range views {
			sameAsOracle(t, fmt.Sprintf("%s/%s", r.ID(), name), r, v)
		}
	}
}

// fuzzRun derives a small DAG run and a partition of its modules from fuzz
// bytes: nSteps steps over nMods modules, step i reading from up to two
// earlier steps (or INPUT), every sink writing a final output; the partition
// assigns each module one of nBlocks composites. Step and data ids are dense
// and added in natural order, so the string graph's insertion order is the
// index's order and the oracle numbers executions as Build does.
func fuzzRun(data []byte) (*run.Run, *core.UserView, bool) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	nMods := 1 + next()%5
	nSteps := 1 + next()%12
	nBlocks := 1 + next()%nMods
	s := spec.New("fz")
	blocks := make(map[string][]string)
	for m := 0; m < nMods; m++ {
		name := fmt.Sprintf("M%d", m+1)
		s.MustAddModule(spec.Module{Name: name})
		b := fmt.Sprintf("B%d", 1+next()%nBlocks)
		blocks[b] = append(blocks[b], name)
	}
	v, err := core.NewUserView(s, blocks)
	if err != nil {
		return nil, nil, false
	}
	rb := run.NewBuilder("fz-run", "fz")
	step := func(i int) string { return fmt.Sprintf("S%d", i+1) }
	for i := 0; i < nSteps; i++ {
		if rb.AddStep(step(i), fmt.Sprintf("M%d", 1+next()%nMods)) != nil {
			return nil, nil, false
		}
	}
	nextData := 0
	flow := func(from, to string) bool {
		nextData++
		return rb.AddFlow(from, to, []string{fmt.Sprintf("d%d", nextData)}) == nil
	}
	hasSucc := make([]bool, nSteps)
	for i := 0; i < nSteps; i++ {
		fed := false
		for k := 0; k < 2 && i > 0; k++ {
			if p := next() % (i + 1); p < i {
				// A repeated pick merges into the existing edge.
				if !flow(step(p), step(i)) {
					return nil, nil, false
				}
				hasSucc[p], fed = true, true
			}
		}
		if !fed && !flow(spec.Input, step(i)) {
			return nil, nil, false
		}
	}
	for i := 0; i < nSteps; i++ {
		if !hasSucc[i] && !flow(step(i), spec.Output) {
			return nil, nil, false
		}
	}
	r, err := rb.Build()
	return r, v, err == nil && r.Validate() == nil
}

// FuzzCompositeBuild: on a small random DAG run and a random partition of
// its modules, Build equals the oracle in ids, order, steps, inputs and
// outputs.
func FuzzCompositeBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 5, 1, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 2, 0, 3})
	f.Add([]byte{4, 11, 2, 0, 1, 0, 1, 1, 0, 3, 2, 1, 0, 2, 3, 1, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 0, 5, 1, 6, 2, 7})
	f.Add([]byte{3, 9, 3, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 9, 9, 0, 1, 0, 2, 1, 3, 2, 4, 3, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, v, ok := fuzzRun(data)
		if !ok {
			t.Skip()
		}
		sameAsOracle(t, "fuzz", r, v)
	})
}
