package graph

// Quotient graphs implement the paper's induced workflow specification
// U(G_w): given a partition of the nodes into blocks, the quotient has one
// node per block and an edge A -> B (A != B) whenever some member of A has
// an edge to some member of B.

// Quotient returns the quotient of g under the partition described by
// blockOf, which maps every node of g to the name of its block. Nodes
// missing from blockOf keep their own identity (singleton blocks named after
// the node itself) — this is how the workflow's input and output nodes pass
// through a user view untouched.
//
// Self-loops in the quotient (edges inside one block, or an original
// self-loop) are emitted only when keepSelfLoops is true. The paper's
// induced specification collapses intra-composite edges, so user views call
// this with keepSelfLoops=false; loop-detection diagnostics use true.
func (g *Graph) Quotient(blockOf map[string]string, keepSelfLoops bool) *Graph {
	q := New()
	name := func(id string) string {
		if b, ok := blockOf[id]; ok {
			return b
		}
		return id
	}
	for _, id := range g.ids {
		q.AddNode(name(id))
	}
	g.EachEdge(func(from, to string) {
		a, b := name(from), name(to)
		if a == b && !keepSelfLoops {
			return
		}
		q.AddEdge(a, b)
	})
	return q
}

// InducedSubgraph returns the subgraph of g restricted to the given node
// set: all of keep's members that exist in g, plus every edge of g whose
// endpoints both survive.
func (g *Graph) InducedSubgraph(keep map[string]bool) *Graph {
	s := New()
	for _, id := range g.ids {
		if keep[id] {
			s.AddNode(id)
		}
	}
	g.EachEdge(func(from, to string) {
		if keep[from] && keep[to] {
			s.AddEdge(from, to)
		}
	})
	return s
}

// WeaklyConnectedComponents returns the weakly connected components of g
// (treating edges as undirected), each sorted, ordered by their smallest
// member. Composite executions (Section II) are exactly the weak components
// of a run restricted to the steps of one composite module.
func (g *Graph) WeaklyConnectedComponents() [][]string {
	n := len(g.ids)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for u, vs := range g.succ {
		for _, v := range vs {
			union(u, v)
		}
	}
	groups := make(map[int][]string)
	for u := range g.ids {
		r := find(u)
		groups[r] = append(groups[r], g.ids[u])
	}
	var out [][]string
	for _, members := range groups {
		sortStrings(members)
		out = append(out, members)
	}
	sortByFirst(out)
	return out
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func sortByFirst(xss [][]string) {
	for i := 1; i < len(xss); i++ {
		for j := i; j > 0 && xss[j][0] < xss[j-1][0]; j-- {
			xss[j], xss[j-1] = xss[j-1], xss[j]
		}
	}
}
