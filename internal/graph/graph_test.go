package graph

import (
	"reflect"
	"testing"
)

func buildDiamond(t testing.TB) *Graph {
	t.Helper()
	g := New()
	for _, e := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}} {
		g.AddEdge(e[0], e[1])
	}
	return g
}

func TestAddNodeIdempotent(t *testing.T) {
	g := New()
	g.AddNode("x")
	g.AddNode("x")
	if got := g.NumNodes(); got != 1 {
		t.Fatalf("NumNodes = %d, want 1", got)
	}
}

func TestAddEdgeCreatesEndpoints(t *testing.T) {
	g := New()
	if !g.AddEdge("a", "b") {
		t.Fatal("AddEdge returned false for a new edge")
	}
	if !g.HasNode("a") || !g.HasNode("b") {
		t.Fatal("endpoints were not created")
	}
	if g.AddEdge("a", "b") {
		t.Fatal("AddEdge returned true for a duplicate edge")
	}
	if got := g.NumEdges(); got != 1 {
		t.Fatalf("NumEdges = %d, want 1", got)
	}
}

func TestSelfLoopAllowed(t *testing.T) {
	g := New()
	if !g.AddEdge("m", "m") {
		t.Fatal("self-loop rejected")
	}
	if !g.HasEdge("m", "m") {
		t.Fatal("self-loop not stored")
	}
	if got := g.Successors("m"); !reflect.DeepEqual(got, []string{"m"}) {
		t.Fatalf("Successors = %v", got)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := buildDiamond(t)
	if !g.RemoveEdge("a", "b") {
		t.Fatal("RemoveEdge failed for existing edge")
	}
	if g.RemoveEdge("a", "b") {
		t.Fatal("RemoveEdge succeeded twice")
	}
	if g.HasEdge("a", "b") {
		t.Fatal("edge still present after removal")
	}
	if got := g.NumEdges(); got != 3 {
		t.Fatalf("NumEdges = %d, want 3", got)
	}
	if g.RemoveEdge("a", "zzz") {
		t.Fatal("RemoveEdge succeeded for unknown endpoint")
	}
}

func TestSuccessorsPredecessors(t *testing.T) {
	g := buildDiamond(t)
	if got := g.Successors("a"); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("Successors(a) = %v", got)
	}
	if got := g.Predecessors("d"); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("Predecessors(d) = %v", got)
	}
	if got := g.Successors("nope"); got != nil {
		t.Fatalf("Successors(unknown) = %v, want nil", got)
	}
	if g.OutDegree("a") != 2 || g.InDegree("d") != 2 || g.OutDegree("zz") != 0 {
		t.Fatal("degree bookkeeping wrong")
	}
}

func TestEdgesDeterministic(t *testing.T) {
	g := buildDiamond(t)
	want := []Edge{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}}
	if got := g.Edges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Edges = %v, want %v", got, want)
	}
	var visited []Edge
	g.EachEdge(func(f, to string) { visited = append(visited, Edge{f, to}) })
	if !reflect.DeepEqual(visited, want) {
		t.Fatalf("EachEdge visited %v, want %v", visited, want)
	}
}

func TestCloneIsolation(t *testing.T) {
	g := buildDiamond(t)
	c := g.Clone()
	c.AddEdge("d", "e")
	if g.HasNode("e") {
		t.Fatal("mutation of clone leaked into original")
	}
	g.RemoveEdge("a", "b")
	if !c.HasEdge("a", "b") {
		t.Fatal("mutation of original leaked into clone")
	}
}

func TestNodesOrder(t *testing.T) {
	g := New()
	g.AddEdge("z", "a")
	g.AddNode("m")
	if got := g.Nodes(); !reflect.DeepEqual(got, []string{"z", "a", "m"}) {
		t.Fatalf("Nodes = %v (insertion order expected)", got)
	}
	if got := g.SortedNodes(); !reflect.DeepEqual(got, []string{"a", "m", "z"}) {
		t.Fatalf("SortedNodes = %v", got)
	}
}

func TestReachBasic(t *testing.T) {
	g := buildDiamond(t)
	r := g.Reach("a")
	for _, want := range []string{"b", "c", "d"} {
		if !r[want] {
			t.Fatalf("Reach(a) missing %s: %v", want, r)
		}
	}
	if r["a"] {
		t.Fatal("Reach(a) contains a but a is not on a cycle")
	}
	if len(g.Reach("d")) != 0 {
		t.Fatal("sink should reach nothing")
	}
	if len(g.Reach("ghost")) != 0 {
		t.Fatal("unknown source should reach nothing")
	}
}

func TestReachSelfOnCycle(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("b", "a")
	if !g.Reach("a")["a"] {
		t.Fatal("node on a 2-cycle must reach itself")
	}
	g2 := New()
	g2.AddEdge("x", "x")
	if !g2.Reach("x")["x"] {
		t.Fatal("self-loop node must reach itself")
	}
}

func TestReachBack(t *testing.T) {
	g := buildDiamond(t)
	r := g.ReachBack("d")
	for _, want := range []string{"a", "b", "c"} {
		if !r[want] {
			t.Fatalf("ReachBack(d) missing %s", want)
		}
	}
}

func TestReachAvoiding(t *testing.T) {
	// a -> b -> c and a -> c directly. Avoiding b: c stays reachable via the
	// direct edge; b itself is reachable (endpoints may be avoided nodes);
	// d is only downstream of c, and c is avoided, so d is blocked.
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	g.AddEdge("a", "c")
	g.AddEdge("c", "d")
	avoid := func(n string) bool { return n == "b" || n == "c" }
	r := g.ReachAvoiding("a", avoid)
	if !r["b"] || !r["c"] {
		t.Fatalf("b and c must be reachable as endpoints: %v", r)
	}
	if r["d"] {
		t.Fatalf("d must be blocked by avoided intermediate c: %v", r)
	}
}

func TestReachAvoidingBlocksIntermediates(t *testing.T) {
	// a -> b -> c, only path to c goes through b. Avoid b => c unreachable.
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("b", "c")
	r := g.ReachAvoiding("a", func(n string) bool { return n == "b" })
	if !r["b"] {
		t.Fatal("endpoint b should be reported")
	}
	if r["c"] {
		t.Fatal("c should be blocked by avoided intermediate b")
	}
}

func TestReachAvoidingSourceMayBeAvoided(t *testing.T) {
	// nr-paths start at relevant nodes: the source being "avoided" must not
	// stop expansion of its own successors.
	g := New()
	g.AddEdge("r", "n")
	g.AddEdge("n", "s")
	r := g.ReachAvoiding("r", func(x string) bool { return x == "r" || x == "s" })
	if !r["n"] || !r["s"] {
		t.Fatalf("expected n and s reachable, got %v", r)
	}
}

func TestHasPathAvoiding(t *testing.T) {
	g := New()
	g.AddEdge("i", "m1")
	g.AddEdge("m1", "m2")
	g.AddEdge("m2", "m3")
	relevant := map[string]bool{"m2": true}
	avoid := func(n string) bool { return relevant[n] }
	if !g.HasPathAvoiding("i", "m2", avoid) {
		t.Fatal("i -> m1 -> m2 is an nr-path (m1 not relevant)")
	}
	if g.HasPathAvoiding("i", "m3", avoid) {
		t.Fatal("every i->m3 path passes through relevant m2")
	}
}
