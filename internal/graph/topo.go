package graph

// This file provides order-and-structure algorithms: topological sorting,
// acyclicity checks, and the back edges that break a specification's
// loops. Workflow specifications may be cyclic (loops), while workflow runs
// must be DAGs, so both the DAG-only and the cycle-tolerant entry points
// are exercised.

// TopoSort returns a topological order of the nodes, or ErrCyclic if the
// graph contains a cycle. Ties are broken by node insertion order, so the
// result is deterministic for a deterministically built graph.
func (g *Graph) TopoSort() ([]string, error) {
	indeg := make([]int, len(g.ids))
	for _, vs := range g.succ {
		for _, v := range vs {
			indeg[v]++
		}
	}
	var queue []int
	for u := range g.ids {
		if indeg[u] == 0 {
			queue = append(queue, u)
		}
	}
	order := make([]int, 0, len(g.ids))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range g.succ[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if len(order) != len(g.ids) {
		return nil, ErrCyclic
	}
	return g.toIDs(order), nil
}

// IsAcyclic reports whether the graph has no directed cycle.
func (g *Graph) IsAcyclic() bool {
	_, err := g.TopoSort()
	return err == nil
}

// BackEdges returns a set of edges whose removal makes the graph acyclic,
// computed by a deterministic DFS from every root. The returned edges are
// genuine retreating edges of the DFS forest, which for the simple-loop
// specifications produced by the workload generator correspond one-to-one
// with the loop back-edges.
func (g *Graph) BackEdges() []Edge {
	n := len(g.ids)
	color := make([]byte, n) // 0 white, 1 grey, 2 black
	var out []Edge
	type frame struct {
		v, ei int
	}
	for root := 0; root < n; root++ {
		if color[root] != 0 {
			continue
		}
		frames := []frame{{v: root}}
		color[root] = 1
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(g.succ[f.v]) {
				w := g.succ[f.v][f.ei]
				f.ei++
				switch color[w] {
				case 0:
					color[w] = 1
					frames = append(frames, frame{v: w})
				case 1:
					out = append(out, Edge{From: g.ids[f.v], To: g.ids[w]})
				}
				continue
			}
			color[f.v] = 2
			frames = frames[:len(frames)-1]
		}
	}
	return out
}
