package graph

import (
	"errors"
	"testing"
)

func TestTopoSortDiamond(t *testing.T) {
	g := buildDiamond(t)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	pos := make(map[string]int)
	for i, n := range order {
		pos[n] = i
	}
	g.EachEdge(func(from, to string) {
		if pos[from] >= pos[to] {
			t.Fatalf("edge %s->%s violates topo order %v", from, to, order)
		}
	})
}

func TestTopoSortCyclic(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("b", "a")
	if _, err := g.TopoSort(); !errors.Is(err, ErrCyclic) {
		t.Fatalf("TopoSort on cycle: err = %v, want ErrCyclic", err)
	}
	if g.IsAcyclic() {
		t.Fatal("IsAcyclic true for 2-cycle")
	}
}

func TestTopoSortSelfLoop(t *testing.T) {
	g := New()
	g.AddEdge("a", "a")
	if _, err := g.TopoSort(); !errors.Is(err, ErrCyclic) {
		t.Fatal("self-loop must be cyclic")
	}
}

func TestTopoSortEmpty(t *testing.T) {
	order, err := New().TopoSort()
	if err != nil || len(order) != 0 {
		t.Fatalf("empty graph: order=%v err=%v", order, err)
	}
}

func TestBackEdgesMakeAcyclic(t *testing.T) {
	g := New()
	g.AddEdge("i", "a")
	g.AddEdge("a", "b")
	g.AddEdge("b", "a") // loop
	g.AddEdge("b", "o")
	g.AddEdge("o", "o") // self loop
	be := g.BackEdges()
	c := g.Clone()
	for _, e := range be {
		c.RemoveEdge(e.From, e.To)
	}
	if !c.IsAcyclic() {
		t.Fatalf("removing back edges %v did not break all cycles", be)
	}
	if len(be) != 2 {
		t.Fatalf("expected 2 back edges, got %v", be)
	}
}

func TestBackEdgesAcyclicGraph(t *testing.T) {
	g := buildDiamond(t)
	if be := g.BackEdges(); len(be) != 0 {
		t.Fatalf("DAG has back edges: %v", be)
	}
}
