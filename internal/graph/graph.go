// Package graph provides the directed-graph substrate used by every other
// layer of the ZOOM reproduction: workflow specifications, workflow runs,
// induced (quotient) views, and provenance graphs are all directed graphs.
//
// The implementation keeps a dense integer core (adjacency slices indexed by
// a compact node index) behind a string-keyed API, so that algorithmic code
// (reachability, topological order, quotients) runs on ints while callers deal in
// human-readable node identifiers such as "M7" or "S13".
//
// A Graph is not safe for concurrent mutation; concurrent readers are safe
// once mutation has stopped. The higher layers (e.g. the warehouse) wrap
// graphs in their own synchronization.
package graph

import (
	"fmt"
	"sort"
)

// Graph is a mutable directed graph over string node identifiers.
// Parallel edges are collapsed (at most one edge u->v); self-loops are
// permitted, since workflow specifications may contain reflexive loops.
type Graph struct {
	index map[string]int // id -> dense index
	ids   []string       // dense index -> id
	succ  [][]int        // adjacency (out-edges), sorted ascending
	pred  [][]int        // reverse adjacency (in-edges), sorted ascending
	edges int            // number of distinct edges
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{index: make(map[string]int)}
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		index: make(map[string]int, len(g.index)),
		ids:   append([]string(nil), g.ids...),
		succ:  make([][]int, len(g.succ)),
		pred:  make([][]int, len(g.pred)),
		edges: g.edges,
	}
	for k, v := range g.index {
		c.index[k] = v
	}
	for i := range g.succ {
		c.succ[i] = append([]int(nil), g.succ[i]...)
		c.pred[i] = append([]int(nil), g.pred[i]...)
	}
	return c
}

// AddNode inserts a node with the given id. Adding an existing node is a
// no-op, so AddNode is idempotent.
func (g *Graph) AddNode(id string) {
	if _, ok := g.index[id]; ok {
		return
	}
	g.index[id] = len(g.ids)
	g.ids = append(g.ids, id)
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
}

// AddEdge inserts the directed edge from -> to, creating missing endpoints.
// Inserting an existing edge is a no-op. It reports whether a new edge was
// actually added.
func (g *Graph) AddEdge(from, to string) bool {
	g.AddNode(from)
	g.AddNode(to)
	u, v := g.index[from], g.index[to]
	if containsInt(g.succ[u], v) {
		return false
	}
	g.succ[u] = insertSorted(g.succ[u], v)
	g.pred[v] = insertSorted(g.pred[v], u)
	g.edges++
	return true
}

// RemoveEdge deletes the edge from -> to if present and reports whether it
// was removed. Endpoints are left in place.
func (g *Graph) RemoveEdge(from, to string) bool {
	u, okU := g.index[from]
	v, okV := g.index[to]
	if !okU || !okV || !containsInt(g.succ[u], v) {
		return false
	}
	g.succ[u] = removeSorted(g.succ[u], v)
	g.pred[v] = removeSorted(g.pred[v], u)
	g.edges--
	return true
}

// HasNode reports whether id is a node of g.
func (g *Graph) HasNode(id string) bool {
	_, ok := g.index[id]
	return ok
}

// HasEdge reports whether the edge from -> to exists.
func (g *Graph) HasEdge(from, to string) bool {
	u, okU := g.index[from]
	v, okV := g.index[to]
	return okU && okV && containsInt(g.succ[u], v)
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.ids) }

// NumEdges returns the number of distinct directed edges.
func (g *Graph) NumEdges() int { return g.edges }

// Nodes returns all node ids in insertion order. The slice is a copy.
func (g *Graph) Nodes() []string {
	return append([]string(nil), g.ids...)
}

// SortedNodes returns all node ids in lexicographic order.
func (g *Graph) SortedNodes() []string {
	out := g.Nodes()
	sort.Strings(out)
	return out
}

// Successors returns the out-neighbors of id in deterministic (insertion
// index) order. It returns nil for an unknown node.
func (g *Graph) Successors(id string) []string {
	u, ok := g.index[id]
	if !ok {
		return nil
	}
	return g.toIDs(g.succ[u])
}

// Predecessors returns the in-neighbors of id in deterministic order.
func (g *Graph) Predecessors(id string) []string {
	u, ok := g.index[id]
	if !ok {
		return nil
	}
	return g.toIDs(g.pred[u])
}

// OutDegree returns the number of out-edges of id (0 for unknown nodes).
func (g *Graph) OutDegree(id string) int {
	if u, ok := g.index[id]; ok {
		return len(g.succ[u])
	}
	return 0
}

// InDegree returns the number of in-edges of id (0 for unknown nodes).
func (g *Graph) InDegree(id string) int {
	if u, ok := g.index[id]; ok {
		return len(g.pred[u])
	}
	return 0
}

// Edge is a directed edge between two named nodes.
type Edge struct {
	From, To string
}

// Edges returns every edge of g, ordered by (From index, To index).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for u, vs := range g.succ {
		for _, v := range vs {
			out = append(out, Edge{From: g.ids[u], To: g.ids[v]})
		}
	}
	return out
}

// EachEdge calls fn for every edge; it avoids allocating the full edge list.
func (g *Graph) EachEdge(fn func(from, to string)) {
	for u, vs := range g.succ {
		for _, v := range vs {
			fn(g.ids[u], g.ids[v])
		}
	}
}

// String renders a compact textual description, useful in test failures.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{nodes=%d edges=%d}", g.NumNodes(), g.NumEdges())
}

// idx returns the dense index of id, or -1 if absent.
func (g *Graph) idx(id string) int {
	if u, ok := g.index[id]; ok {
		return u
	}
	return -1
}

func (g *Graph) toIDs(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = g.ids[x]
	}
	return out
}

func containsInt(xs []int, v int) bool {
	i := sort.SearchInts(xs, v)
	return i < len(xs) && xs[i] == v
}

func insertSorted(xs []int, v int) []int {
	i := sort.SearchInts(xs, v)
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

func removeSorted(xs []int, v int) []int {
	i := sort.SearchInts(xs, v)
	if i < len(xs) && xs[i] == v {
		return append(xs[:i], xs[i+1:]...)
	}
	return xs
}
