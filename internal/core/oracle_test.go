package core

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/spec"
)

// The reference implementation of the view layer: the string-keyed
// Analysis, RelevUserViewBuilder and property checkers as they were before
// the layer moved onto module ids. The integer path is held to them by
// FuzzRelevUserViewBuilder and FuzzViewChecks. They read a view only
// through its accessors (Members, BlockOf, Induced), and their checkers drop
// duplicate relevant modules, keeping the first occurrence in place; apart
// from that the code is as it was.

// oracleAnalysis holds rpred/rsucc as string sets:
//
//	rpred(n) = { r in R ∪ {input}  | there is an nr-path from r to n }
//	rsucc(n) = { r in R ∪ {output} | there is an nr-path from n to r }
//
// materialized with |R|+1 filtered BFS traversals each.
type oracleAnalysis struct {
	s        *spec.Spec
	relevant map[string]bool
	rpred    map[string]map[string]bool
	rsucc    map[string]map[string]bool

	rpredSorted map[string][]string
	rsuccSorted map[string][]string
}

func newOracleAnalysis(s *spec.Spec, relevant []string) (*oracleAnalysis, error) {
	a := &oracleAnalysis{
		s:           s,
		relevant:    make(map[string]bool, len(relevant)),
		rpred:       make(map[string]map[string]bool),
		rsucc:       make(map[string]map[string]bool),
		rpredSorted: make(map[string][]string),
		rsuccSorted: make(map[string][]string),
	}
	for _, r := range relevant {
		if !s.HasModule(r) {
			return nil, fmt.Errorf("core: relevant module %q not in spec %q: %w", r, s.Name(), ErrBadRelevant)
		}
		a.relevant[r] = true
	}
	g := s.Graph()
	avoid := func(n string) bool { return a.relevant[n] }

	add := func(m map[string]map[string]bool, key, val string) {
		set, ok := m[key]
		if !ok {
			set = make(map[string]bool)
			m[key] = set
		}
		set[val] = true
	}

	sources := append(a.sortedRelevant(), spec.Input)
	for _, r := range sources {
		for n := range g.ReachAvoiding(r, avoid) {
			add(a.rpred, n, r)
		}
	}
	targets := append(a.sortedRelevant(), spec.Output)
	for _, r := range targets {
		for n := range g.ReachBackAvoiding(r, avoid) {
			add(a.rsucc, n, r)
		}
	}
	return a, nil
}

func (a *oracleAnalysis) Relevant() []string                { return a.sortedRelevant() }
func (a *oracleAnalysis) IsRelevant(n string) bool          { return a.relevant[n] }
func (a *oracleAnalysis) RPredSet(n string) map[string]bool { return a.rpred[n] }
func (a *oracleAnalysis) RSuccSet(n string) map[string]bool { return a.rsucc[n] }

func (a *oracleAnalysis) RPred(n string) []string {
	if cached, ok := a.rpredSorted[n]; ok {
		return cached
	}
	out := setToSorted(a.rpred[n])
	a.rpredSorted[n] = out
	return out
}

func (a *oracleAnalysis) RSucc(n string) []string {
	if cached, ok := a.rsuccSorted[n]; ok {
		return cached
	}
	out := setToSorted(a.rsucc[n])
	a.rsuccSorted[n] = out
	return out
}

// RPredOfSet returns rpredM(M) = ∪_{n in M} rpred(n), sorted.
func (a *oracleAnalysis) RPredOfSet(members []string) []string {
	return setToSorted(a.unionOf(a.rpred, members))
}

// RSuccOfSet returns rsuccM(M) = ∪_{n in M} rsucc(n), sorted.
func (a *oracleAnalysis) RSuccOfSet(members []string) []string {
	return setToSorted(a.unionOf(a.rsucc, members))
}

// HasNRPath reports whether there is an nr-path from one node to another
// (endpoints may be relevant, INPUT or OUTPUT; intermediates must not be
// relevant).
func (a *oracleAnalysis) HasNRPath(from, to string) bool {
	return a.s.Graph().HasPathAvoiding(from, to, func(n string) bool { return a.relevant[n] })
}

func (a *oracleAnalysis) sortedRelevant() []string {
	out := make([]string, 0, len(a.relevant))
	for r := range a.relevant {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

func (a *oracleAnalysis) unionOf(m map[string]map[string]bool, members []string) map[string]bool {
	out := make(map[string]bool)
	for _, n := range members {
		for r := range m[n] {
			out[r] = true
		}
	}
	return out
}

func setToSorted(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// oracleBuildRelevant is RelevUserViewBuilder over string sets.
func oracleBuildRelevant(s *spec.Spec, relevant []string) (*UserView, error) {
	a, err := newOracleAnalysis(s, relevant)
	if err != nil {
		return nil, err
	}
	R := a.Relevant()
	marked := make(map[string]bool)

	relevantBlock := make(map[string][]string, len(R)) // r -> members
	for _, r := range R {
		relevantBlock[r] = []string{r}
	}

	// Step 1a (Lines 3-5): in(r) = { n ∈ N\R : rsucc(n) = {r} }.
	for _, r := range R {
		for _, n := range s.ModuleNames() {
			if a.IsRelevant(n) || marked[n] {
				continue
			}
			if succ := a.RSucc(n); len(succ) == 1 && succ[0] == r {
				relevantBlock[r] = append(relevantBlock[r], n)
				marked[n] = true
			}
		}
	}
	// Step 1b (Lines 6-8): out(r) = { n ∈ N\R unmarked : rpred(n) = {r} }.
	for _, r := range R {
		for _, n := range s.ModuleNames() {
			if a.IsRelevant(n) || marked[n] {
				continue
			}
			if pred := a.RPred(n); len(pred) == 1 && pred[0] == r {
				relevantBlock[r] = append(relevantBlock[r], n)
				marked[n] = true
			}
		}
	}

	// Step 2 (Lines 11-16): group unmarked non-relevant modules by their
	// (rpred, rsucc) signature.
	type nrcBlock struct {
		members []string
		pred    []string // rpredM, kept sorted
		succ    []string // rsuccM, kept sorted
	}
	var nrc []*nrcBlock
	bySig := make(map[string]*nrcBlock)
	for _, n := range s.ModuleNames() {
		if a.IsRelevant(n) || marked[n] {
			continue
		}
		pred, succ := a.RPred(n), a.RSucc(n)
		sig := fmt.Sprint(pred, "|", succ)
		if blk, ok := bySig[sig]; ok {
			blk.members = append(blk.members, n)
			continue
		}
		blk := &nrcBlock{members: []string{n}, pred: pred, succ: succ}
		bySig[sig] = blk
		nrc = append(nrc, blk)
	}

	// Step 3 (Lines 17-25): merge non-relevant composites while legal.
	g := s.Graph()
	ownerBlk := make(map[string]*nrcBlock)
	for _, blk := range nrc {
		for _, n := range blk.members {
			ownerBlk[n] = blk
		}
	}
	intern := make(map[string]int)
	internID := func(xs []string) int {
		key := strings.Join(xs, "\x00")
		id, ok := intern[key]
		if !ok {
			id = len(intern)
			intern[key] = id
		}
		return id
	}
	predID := make(map[string]int)
	succID := make(map[string]int)
	for _, blk := range nrc {
		for _, n := range blk.members {
			predID[n] = internID(a.RPred(n))
			succID[n] = internID(a.RSucc(n))
		}
	}
	legalMerge := func(b1, b2 *nrcBlock) bool {
		rpredMID := internID(unionSorted(b1.pred, b2.pred))
		rsuccMID := internID(unionSorted(b1.succ, b2.succ))
		for _, blk := range [2]*nrcBlock{b1, b2} {
			for _, n := range blk.members {
				// V+ : n has an outgoing edge leaving M.
				exit := false
				for _, w := range g.Successors(n) {
					if o := ownerBlk[w]; o != b1 && o != b2 {
						exit = true
						break
					}
				}
				if exit && predID[n] != rpredMID {
					return false
				}
				// V- : n has an incoming edge entering M from outside.
				entry := false
				for _, w := range g.Predecessors(n) {
					if o := ownerBlk[w]; o != b1 && o != b2 {
						entry = true
						break
					}
				}
				if entry && succID[n] != rsuccMID {
					return false
				}
			}
		}
		return true
	}
	sort.Slice(nrc, func(i, j int) bool { return minString(nrc[i].members) < minString(nrc[j].members) })
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(nrc); i++ {
			for j := i + 1; j < len(nrc); j++ {
				if legalMerge(nrc[i], nrc[j]) {
					for _, n := range nrc[j].members {
						ownerBlk[n] = nrc[i]
					}
					nrc[i].members = append(nrc[i].members, nrc[j].members...)
					nrc[i].pred = unionSorted(nrc[i].pred, nrc[j].pred)
					nrc[i].succ = unionSorted(nrc[i].succ, nrc[j].succ)
					nrc = append(nrc[:j], nrc[j+1:]...)
					changed = true
					j--
				}
			}
		}
	}

	blocks := make(map[string][]string, len(relevantBlock)+len(nrc))
	for r, members := range relevantBlock {
		sort.Strings(members)
		blocks[r] = members
	}
	sort.Slice(nrc, func(i, j int) bool { return minString(nrc[i].members) < minString(nrc[j].members) })
	for i, blk := range nrc {
		sort.Strings(blk.members)
		blocks[fmt.Sprintf("NR%d", i+1)] = blk.members
	}
	return NewUserView(s, blocks)
}

// unionSorted merges two sorted, deduplicated string slices into a fresh
// sorted, deduplicated slice.
func unionSorted(x, y []string) []string {
	out := make([]string, 0, len(x)+len(y))
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			out = append(out, x[i])
			i++
		case x[i] > y[j]:
			out = append(out, y[j])
			j++
		default:
			out = append(out, x[i])
			i++
			j++
		}
	}
	out = append(out, x[i:]...)
	return append(out, y[j:]...)
}

// minString returns the lexicographically smallest element of xs.
func minString(xs []string) string {
	min := xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
	}
	return min
}

// firstOccurrences drops repeated entries, keeping the first in place.
func firstOccurrences(xs []string) []string {
	seen := make(map[string]bool, len(xs))
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

func oracleWellFormed(v *UserView, relevant []string) error {
	rel := toSet(relevant)
	for _, name := range v.Composites() {
		count := 0
		var found []string
		for _, m := range v.Members(name) {
			if rel[m] {
				count++
				found = append(found, m)
			}
		}
		if count > 1 {
			return fmt.Errorf("%w: composite %q contains %v", ErrProperty1, name, found)
		}
	}
	return nil
}

// dataflowContext bundles the per-graph reachability fronts used by the
// Property 2 and 3 edge checks.
type dataflowContext struct {
	g       *graph.Graph
	rel     map[string]bool            // "relevant" nodes of this graph
	fwd     map[string]map[string]bool // source -> nr-reachable set
	bwd     map[string]map[string]bool // target -> nr-co-reachable set
	sources []string                   // R ∪ {input} (graph-local names)
	targets []string                   // R ∪ {output}
}

func newDataflowContext(g *graph.Graph, relNodes []string) *dataflowContext {
	ctx := &dataflowContext{
		g:   g,
		rel: toSet(relNodes),
		fwd: make(map[string]map[string]bool),
		bwd: make(map[string]map[string]bool),
	}
	avoid := func(n string) bool { return ctx.rel[n] }
	ctx.sources = append(append([]string(nil), relNodes...), spec.Input)
	ctx.targets = append(append([]string(nil), relNodes...), spec.Output)
	for _, r := range ctx.sources {
		ctx.fwd[r] = g.ReachAvoiding(r, avoid)
	}
	for _, r := range ctx.targets {
		ctx.bwd[r] = g.ReachBackAvoiding(r, avoid)
	}
	return ctx
}

// edgeOnNRPath reports whether the edge (u, w) lies on an nr-path from r to
// rp in this context's graph, using the precomputed fronts.
func (ctx *dataflowContext) edgeOnNRPath(u, w, r, rp string) bool {
	okU := u == r || (!ctx.rel[u] && ctx.fwd[r][u])
	if !okU {
		return false
	}
	return w == rp || (!ctx.rel[w] && ctx.bwd[rp][w])
}

// hasNRPath reports an nr-path r -> rp of length >= 1.
func (ctx *dataflowContext) hasNRPath(r, rp string) bool { return ctx.fwd[r][rp] }

// buildContexts prepares the specification-side and view-side contexts.
// The view-side relevant nodes are the composites holding a relevant module;
// C(input)=input and C(output)=output pass through by construction.
func buildContexts(v *UserView, relevant []string) (specCtx, viewCtx *dataflowContext, cOf func(string) string) {
	relevant = firstOccurrences(relevant)
	specCtx = newDataflowContext(v.spec.Graph(), relevant)
	relComposites := make([]string, 0, len(relevant))
	seen := make(map[string]bool)
	for _, r := range relevant {
		if c, ok := v.CompositeOf(r); ok && !seen[c] {
			seen[c] = true
			relComposites = append(relComposites, c)
		}
	}
	viewCtx = newDataflowContext(v.Induced(), relComposites)
	cOf = func(n string) string {
		c, _ := v.CompositeOf(n)
		return c
	}
	return specCtx, viewCtx, cOf
}

func oraclePreservesDataflow(v *UserView, relevant []string) error {
	specCtx, viewCtx, cOf := buildContexts(v, relevant)
	var err error
	v.spec.Graph().EachEdge(func(u, w string) {
		if err != nil {
			return
		}
		a, b := cOf(u), cOf(w)
		if a == b {
			return // edge internal to a composite: induces nothing
		}
		for _, r := range specCtx.sources {
			for _, rp := range specCtx.targets {
				if viewCtx.edgeOnNRPath(a, b, cOf(r), cOf(rp)) && !specCtx.edgeOnNRPath(u, w, r, rp) {
					err = fmt.Errorf("%w: edge (%s,%s) induces (%s,%s) on an nr-path %s->%s in the view, but is on no nr-path %s->%s in the spec",
						ErrProperty2, u, w, a, b, cOf(r), cOf(rp), r, rp)
					return
				}
			}
		}
	})
	return err
}

func oracleCompleteWRTDataflow(v *UserView, relevant []string) error {
	specCtx, viewCtx, cOf := buildContexts(v, relevant)
	var err error
	v.spec.Graph().EachEdge(func(u, w string) {
		if err != nil {
			return
		}
		a, b := cOf(u), cOf(w)
		if a == b {
			return
		}
		for _, r := range specCtx.sources {
			for _, rp := range specCtx.targets {
				if specCtx.edgeOnNRPath(u, w, r, rp) && !viewCtx.edgeOnNRPath(a, b, cOf(r), cOf(rp)) {
					err = fmt.Errorf("%w: edge (%s,%s) on nr-path %s->%s in the spec induces (%s,%s), which is on no nr-path %s->%s in the view",
						ErrProperty3, u, w, r, rp, a, b, cOf(r), cOf(rp))
					return
				}
			}
		}
	})
	return err
}

// PreservesPathLevel checks the path-level reading of Properties 2 and 3
// ("every nr-path from C(r) to C(r') in U(G_w) must be the residue of an
// nr-path from r to r' in G_w, and each nr-path in G_w must have a
// residue"): the set of (r, r') pairs connected by nr-paths is identical in
// the specification and the view. Pairs with r = r' are excluded: a loop
// around a single relevant module may legitimately be absorbed into its
// composite — the paper's Section II makes exactly this point when Joe,
// whose composite M10 swallows the M3-M4-M5 loop, "would not be aware of
// the looping inside of S13". The edge-level checkers imply this check; the
// property tests cross-validate the two formulations.
func PreservesPathLevel(v *UserView, relevant []string) error {
	specCtx, viewCtx, cOf := buildContexts(v, relevant)
	for _, r := range specCtx.sources {
		for _, rp := range specCtx.targets {
			if r == rp {
				continue
			}
			inSpec := specCtx.hasNRPath(r, rp)
			inView := viewCtx.hasNRPath(cOf(r), cOf(rp))
			if inView && !inSpec {
				return fmt.Errorf("%w: nr-path %s->%s exists in view only", ErrProperty2, r, rp)
			}
			if inSpec && !inView {
				return fmt.Errorf("%w: nr-path %s->%s exists in spec only", ErrProperty3, r, rp)
			}
		}
	}
	return nil
}

func oracleCheckAll(v *UserView, relevant []string) error {
	if err := oracleWellFormed(v, relevant); err != nil {
		return err
	}
	if err := oraclePreservesDataflow(v, relevant); err != nil {
		return err
	}
	return oracleCompleteWRTDataflow(v, relevant)
}

func oracleMinimal(v *UserView, relevant []string) (bool, *MergeWitness) {
	names := v.Composites()
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			merged := mergeBlocks(v, names[i], names[j])
			if oracleCheckAll(merged, relevant) == nil {
				return false, &MergeWitness{A: names[i], B: names[j]}
			}
		}
	}
	return true, nil
}

// mergeBlocks returns a copy of v with composites a and b fused under a's
// name, which stays valid: if it shadows a module, that module was a member
// of a and remains inside the union.
func mergeBlocks(v *UserView, a, b string) *UserView {
	blocks := v.Blocks()
	union := append(blocks[a], blocks[b]...)
	delete(blocks, a)
	delete(blocks, b)
	blocks[a] = union
	merged, err := NewUserView(v.spec, blocks)
	if err != nil {
		panic(fmt.Sprintf("core: internal merge produced invalid view: %v", err))
	}
	return merged
}

// RelevantCompositeConnected verifies the structural guarantee stated in
// Section III: in a view satisfying Properties 1-3, every composite that
// contains a relevant module is weakly connected in the specification.
func RelevantCompositeConnected(v *UserView, relevant []string) error {
	rel := toSet(relevant)
	for _, name := range v.Composites() {
		holdsRelevant := false
		for _, m := range v.Members(name) {
			if rel[m] {
				holdsRelevant = true
				break
			}
		}
		if !holdsRelevant {
			continue
		}
		keep := toSet(v.Members(name))
		sub := v.spec.Graph().InducedSubgraph(keep)
		if comps := sub.WeaklyConnectedComponents(); len(comps) > 1 {
			return fmt.Errorf("core: relevant composite %q is disconnected: %v", name, comps)
		}
	}
	return nil
}

func oracleDiagnose(v *UserView, relevant []string) []Violation {
	var out []Violation
	rel := toSet(relevant)
	for _, name := range v.Composites() {
		var found []string
		for _, m := range v.Members(name) {
			if rel[m] {
				found = append(found, m)
			}
		}
		if len(found) > 1 {
			out = append(out, Violation{
				Kind:      ViolationWellFormed,
				Composite: name,
				Detail:    fmt.Sprintf("composite %q contains %d relevant modules %v", name, len(found), found),
			})
		}
	}
	specCtx, viewCtx, cOf := buildContexts(v, relevant)
	v.spec.Graph().EachEdge(func(u, w string) {
		a, b := cOf(u), cOf(w)
		if a == b {
			return
		}
		for _, r := range specCtx.sources {
			for _, rp := range specCtx.targets {
				onView := viewCtx.edgeOnNRPath(a, b, cOf(r), cOf(rp))
				onSpec := specCtx.edgeOnNRPath(u, w, r, rp)
				if onView && !onSpec {
					out = append(out, Violation{
						Kind: ViolationPreserves,
						Edge: [2]string{u, w},
						Pair: [2]string{r, rp},
						Detail: fmt.Sprintf("edge (%s,%s) makes %s appear to feed %s via (%s,%s), but no such dataflow exists",
							u, w, r, rp, a, b),
					})
				}
				if onSpec && !onView {
					out = append(out, Violation{
						Kind: ViolationComplete,
						Edge: [2]string{u, w},
						Pair: [2]string{r, rp},
						Detail: fmt.Sprintf("dataflow %s -> %s through edge (%s,%s) is hidden: induced edge (%s,%s) lost it",
							r, rp, u, w, a, b),
					})
				}
			}
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		if out[i].Edge != out[j].Edge {
			return out[i].Edge[0]+out[i].Edge[1] < out[j].Edge[0]+out[j].Edge[1]
		}
		return out[i].Pair[0]+out[i].Pair[1] < out[j].Pair[0]+out[j].Pair[1]
	})
	return out
}

// The tests below exercise helpers only the oracle has (HasNRPath and the
// set unions); they hold the integer Analysis to them where both apply.

func TestAnalysisPhylogenomicsIntro(t *testing.T) {
	// Section II: "there exists an nr-path from input to M2, but not from
	// input to M7, since all paths connecting these two modules contain an
	// intermediate node in R (M2, M3)."
	s := spec.Phylogenomics()
	a, err := NewAnalysis(s, spec.PhyloRelevantJoe())
	if err != nil {
		t.Fatal(err)
	}
	o, _ := newOracleAnalysis(s, spec.PhyloRelevantJoe())
	if !o.HasNRPath(spec.Input, "M2") {
		t.Fatal("expected nr-path input -> M2")
	}
	if o.HasNRPath(spec.Input, "M7") {
		t.Fatal("unexpected nr-path input -> M7")
	}
	if got := a.RPred("M7"); !reflect.DeepEqual(got, []string{"M2", "M3"}) {
		t.Fatalf("rpred(M7) = %v, want [M2 M3]", got)
	}
}

func TestAnalysisSetUnions(t *testing.T) {
	s, relevant := spec.Figure6()
	a, _ := newOracleAnalysis(s, relevant)
	got := a.RSuccOfSet([]string{"M1", "M4", "M5"})
	want := []string{"M3", "M6", spec.Output}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rsuccM({M1,M4,M5}) = %v, want %v", got, want)
	}
	gotP := a.RPredOfSet([]string{"M1", "M4", "M5"})
	if !reflect.DeepEqual(gotP, []string{spec.Input}) {
		t.Fatalf("rpredM({M1,M4,M5}) = %v, want [INPUT]", gotP)
	}
	if a.RPredOfSet(nil) != nil {
		t.Fatal("union of empty set should be nil")
	}
}

// Property: rpred/rsucc are dual — r ∈ rpred(n) iff there is an nr-path
// r -> n iff n "sees" r upstream; the integer rows are checked against the
// oracle's HasNRPath, a fresh filtered BFS per pair.
func TestQuickAnalysisDuality(t *testing.T) {
	s := spec.Phylogenomics()
	f := func(mask uint8) bool {
		var rel []string
		for i := 0; i < 8; i++ {
			if mask&(1<<uint(i)) != 0 {
				rel = append(rel, fmt.Sprintf("M%d", i+1))
			}
		}
		a, err := NewAnalysis(s, rel)
		if err != nil {
			return false
		}
		o, _ := newOracleAnalysis(s, rel)
		for _, n := range s.ModuleNames() {
			for _, r := range append(a.Relevant(), spec.Input) {
				if slices.Contains(a.RPred(n), r) != o.HasNRPath(r, n) {
					return false
				}
			}
			for _, r := range append(a.Relevant(), spec.Output) {
				if slices.Contains(a.RSucc(n), r) != o.HasNRPath(n, r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
