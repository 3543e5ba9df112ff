package core

import "repro/internal/spec"

// modules is a specification's module table, the integer domain the view
// layer runs on. Module names are sorted once and numbered in that order,
// so ascending ids are ascending names; INPUT and OUTPUT take the two ids
// after the modules. Edges are kept in Graph.EachEdge order, the order in
// which the checkers report violations, and as CSR rows both ways.
type modules struct {
	names      []string         // id -> name; names[n] = INPUT, names[n+1] = OUTPUT
	id         map[string]int32 // name -> id, INPUT and OUTPUT included
	n          int              // number of modules
	edges      [][2]int32
	succ, pred csr
}

func newModules(s *spec.Spec) *modules {
	names := append(s.ModuleNames(), spec.Input, spec.Output)
	t := &modules{names: names, id: make(map[string]int32, len(names)), n: len(names) - 2}
	for i, name := range names {
		t.id[name] = int32(i)
	}
	s.Graph().EachEdge(func(from, to string) {
		t.edges = append(t.edges, [2]int32{t.id[from], t.id[to]})
	})
	t.succ.fill(len(names), t.edges, 0)
	t.pred.fill(len(names), t.edges, 1)
	return t
}

// module returns the id of a module of the specification; INPUT, OUTPUT
// and unknown names are not modules.
func (t *modules) module(name string) (int32, bool) {
	id, ok := t.id[name]
	return id, ok && int(id) < t.n
}

// csr is a compressed sparse row adjacency: the neighbours of node u are
// adj[off[u]:off[u+1]].
type csr struct{ off, adj []int32 }

func (c csr) row(u int32) []int32 { return c.adj[c.off[u]:c.off[u+1]] }

// fill builds c over nodes 0..nodes-1 from edges, keyed by the end at
// position from: 0 gives rows of successors, 1 rows of predecessors.
func (c *csr) fill(nodes int, edges [][2]int32, from int) {
	c.off, c.adj = make([]int32, nodes+1), make([]int32, len(edges))
	for _, e := range edges {
		c.off[e[from]]++
	}
	for u := 1; u <= nodes; u++ {
		c.off[u] += c.off[u-1]
	}
	for i := len(edges) - 1; i >= 0; i-- {
		u := edges[i][from]
		c.off[u]--
		c.adj[c.off[u]] = edges[i][1-from]
	}
}
