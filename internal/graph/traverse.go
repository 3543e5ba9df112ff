package graph

// This file implements the traversal primitives: plain reachability and the
// "avoiding" reachability that underlies the paper's nr-paths. An nr-path is
// a path whose *intermediate* nodes are all non-relevant; the endpoints may
// be anything. ReachAvoiding therefore expands a frontier node only when the
// avoid predicate rejects it (or it is the source), while still *recording*
// every node it touches.

// Reach returns the set of nodes reachable from src by a path of length >= 1.
// src itself is included only if it lies on a cycle (including a self-loop).
// It returns an empty set for an unknown source.
func (g *Graph) Reach(src string) map[string]bool {
	return g.reach(src, false, nil)
}

// ReachBack returns the set of nodes that can reach src by a path of
// length >= 1 (reachability over reversed edges).
func (g *Graph) ReachBack(src string) map[string]bool {
	return g.reach(src, true, nil)
}

// ReachAvoiding returns every node t such that there is a path src -> t of
// length >= 1 whose intermediate nodes n (excluding src and t) all satisfy
// !avoid(n). Nodes satisfying avoid may appear in the result — they simply
// terminate expansion. A nil avoid behaves like Reach.
func (g *Graph) ReachAvoiding(src string, avoid func(string) bool) map[string]bool {
	return g.reach(src, false, avoid)
}

// ReachBackAvoiding is ReachAvoiding over reversed edges: every node t with
// a path t -> src whose intermediates all satisfy !avoid.
func (g *Graph) ReachBackAvoiding(src string, avoid func(string) bool) map[string]bool {
	return g.reach(src, true, avoid)
}

func (g *Graph) reach(src string, back bool, avoid func(string) bool) map[string]bool {
	out := make(map[string]bool)
	s := g.idx(src)
	if s < 0 {
		return out
	}
	adj := g.succ
	if back {
		adj = g.pred
	}
	seen := make([]bool, len(g.ids)) // enqueued-for-expansion marker
	var queue []int
	// Seed with the neighbors of src; src itself is expanded exactly once.
	for _, v := range adj[s] {
		if !out[g.ids[v]] {
			out[g.ids[v]] = true
			if !seen[v] && (avoid == nil || !avoid(g.ids[v])) {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if !out[g.ids[v]] {
				out[g.ids[v]] = true
			}
			if !seen[v] && (avoid == nil || !avoid(g.ids[v])) {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return out
}

// HasPathAvoiding reports whether there is a path of length >= 1 from src to
// dst whose intermediate nodes all satisfy !avoid. This is exactly the
// paper's "nr-path from src to dst" when avoid tests relevance.
func (g *Graph) HasPathAvoiding(src, dst string, avoid func(string) bool) bool {
	return g.ReachAvoiding(src, avoid)[dst]
}
