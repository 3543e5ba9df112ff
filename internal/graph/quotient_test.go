package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestQuotientBasic(t *testing.T) {
	// i -> m1 -> m2 -> o with m1, m2 grouped into block "C".
	g := New()
	g.AddEdge("i", "m1")
	g.AddEdge("m1", "m2")
	g.AddEdge("m2", "o")
	q := g.Quotient(map[string]string{"m1": "C", "m2": "C"}, false)
	if q.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3 (i, C, o)", q.NumNodes())
	}
	if !q.HasEdge("i", "C") || !q.HasEdge("C", "o") {
		t.Fatalf("missing quotient edges: %v", q.Edges())
	}
	if q.HasEdge("C", "C") {
		t.Fatal("intra-block edge leaked as self-loop with keepSelfLoops=false")
	}
}

func TestQuotientKeepSelfLoops(t *testing.T) {
	g := New()
	g.AddEdge("m1", "m2")
	g.AddEdge("m2", "m1")
	q := g.Quotient(map[string]string{"m1": "C", "m2": "C"}, true)
	if !q.HasEdge("C", "C") {
		t.Fatal("expected self-loop with keepSelfLoops=true")
	}
}

func TestQuotientPassThrough(t *testing.T) {
	g := New()
	g.AddEdge("i", "m")
	q := g.Quotient(map[string]string{"m": "C"}, false)
	if !q.HasNode("i") {
		t.Fatal("unpartitioned node must pass through unchanged")
	}
}

func TestQuotientCollapsesParallelEdges(t *testing.T) {
	g := New()
	g.AddEdge("a1", "b1")
	g.AddEdge("a2", "b2")
	q := g.Quotient(map[string]string{"a1": "A", "a2": "A", "b1": "B", "b2": "B"}, false)
	if q.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want single collapsed A->B", q.NumEdges())
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := buildDiamond(t)
	s := g.InducedSubgraph(map[string]bool{"a": true, "b": true, "d": true})
	if s.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", s.NumNodes())
	}
	if !s.HasEdge("a", "b") || !s.HasEdge("b", "d") || s.HasEdge("a", "c") {
		t.Fatalf("wrong edges: %v", s.Edges())
	}
}

func TestWeaklyConnectedComponents(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("c", "b") // weakly connects c with a,b
	g.AddEdge("x", "y")
	g.AddNode("lone")
	got := g.WeaklyConnectedComponents()
	want := [][]string{{"a", "b", "c"}, {"lone"}, {"x", "y"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("components = %v, want %v", got, want)
	}
}

// Property: the quotient under a random partition never has more nodes or
// more edges than the original, and every original cross-block edge is
// represented.
func TestQuotientSoundOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(15)
		g := randomGraph(rng, n, rng.Intn(3*n))
		blocks := rng.Intn(n) + 1
		blockOf := make(map[string]string)
		for _, id := range g.Nodes() {
			blockOf[id] = "B" + string(rune('0'+rng.Intn(blocks)))
		}
		q := g.Quotient(blockOf, false)
		if q.NumNodes() > g.NumNodes() || q.NumEdges() > g.NumEdges() {
			t.Fatalf("quotient grew: %v vs %v", q, g)
		}
		g.EachEdge(func(from, to string) {
			a, b := blockOf[from], blockOf[to]
			if a != b && !q.HasEdge(a, b) {
				t.Fatalf("cross edge %s->%s (%s->%s) missing in quotient", from, to, a, b)
			}
		})
	}
}

// randomGraph builds a graph of n nodes and m random edges, self-loops and
// cycles included.
func randomGraph(rng *rand.Rand, n, m int) *Graph {
	g := New()
	names := make([]string, n)
	for i := range names {
		names[i] = "n" + string(rune('A'+i%26)) + string(rune('0'+i/26))
		g.AddNode(names[i])
	}
	for i := 0; i < m; i++ {
		g.AddEdge(names[rng.Intn(n)], names[rng.Intn(n)])
	}
	return g
}
