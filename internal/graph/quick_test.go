package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// edgeList is a quick-generatable compact description of a graph: each
// value encodes one edge over a bounded node universe.
type edgeList []uint16

// Generate implements quick.Generator.
func (edgeList) Generate(rand *rand.Rand, size int) reflect.Value {
	n := rand.Intn(40)
	out := make(edgeList, n)
	for i := range out {
		out[i] = uint16(rand.Intn(1 << 16))
	}
	return reflect.ValueOf(out)
}

func (e edgeList) build() *Graph {
	g := New()
	for _, v := range e {
		from := int(v>>8) % 12
		to := int(v&0xff) % 12
		g.AddEdge(nodeName(from), nodeName(to))
	}
	return g
}

func nodeName(i int) string { return string(rune('a' + i)) }

// Property: successor/predecessor duality — v ∈ succ(u) iff u ∈ pred(v),
// and the edge count equals the sum of successor-list lengths.
func TestQuickSuccPredDuality(t *testing.T) {
	f := func(e edgeList) bool {
		g := e.build()
		count := 0
		for _, u := range g.Nodes() {
			for _, v := range g.Successors(u) {
				count++
				found := false
				for _, back := range g.Predecessors(v) {
					if back == u {
						found = true
						break
					}
				}
				if !found || !g.HasEdge(u, v) {
					return false
				}
			}
		}
		return count == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: TopoSort succeeds iff IsAcyclic, and when it succeeds every
// edge points forward in the order.
func TestQuickTopoSortIffAcyclic(t *testing.T) {
	f := func(e edgeList) bool {
		g := e.build()
		order, err := g.TopoSort()
		if (err == nil) != g.IsAcyclic() {
			return false
		}
		if err != nil {
			return true
		}
		pos := make(map[string]int, len(order))
		for i, n := range order {
			pos[n] = i
		}
		ok := true
		g.EachEdge(func(from, to string) {
			if pos[from] >= pos[to] {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: removing BackEdges always yields an acyclic graph, and no back
// edges are reported for acyclic graphs.
func TestQuickBackEdges(t *testing.T) {
	f := func(e edgeList) bool {
		g := e.build()
		be := g.BackEdges()
		if g.IsAcyclic() && len(be) > 0 {
			return false
		}
		c := g.Clone()
		for _, edge := range be {
			c.RemoveEdge(edge.From, edge.To)
		}
		return c.IsAcyclic()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: quotient never invents cross-block reachability — if block A
// reaches block B in the quotient, some member of A reaches some member of
// B in the original (path-wise this is the soundness half of induced
// workflow semantics).
func TestQuickQuotientReachabilitySound(t *testing.T) {
	f := func(e edgeList, assign []uint8) bool {
		g := e.build()
		if g.NumNodes() == 0 {
			return true
		}
		blockOf := make(map[string]string)
		nodes := g.Nodes()
		for i, n := range nodes {
			b := 0
			if len(assign) > 0 {
				b = int(assign[i%len(assign)]) % 4
			}
			blockOf[n] = "B" + string(rune('0'+b))
		}
		q := g.Quotient(blockOf, true)
		// Every quotient edge must be witnessed by an original edge.
		ok := true
		q.EachEdge(func(a, b string) {
			witnessed := false
			g.EachEdge(func(u, v string) {
				if blockOf[u] == a && blockOf[v] == b {
					witnessed = true
				}
			})
			if !witnessed {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: ReachAvoiding is monotone in the avoid predicate — avoiding
// fewer nodes can only grow the reachable set.
func TestQuickReachAvoidingMonotone(t *testing.T) {
	f := func(e edgeList, blockedMask uint16) bool {
		g := e.build()
		blockedBig := func(n string) bool { return blockedMask&(1<<uint(n[0]-'a')) != 0 }
		// The smaller predicate blocks a subset (clear the low bits).
		smallMask := blockedMask &^ 0x0f
		blockedSmall := func(n string) bool { return smallMask&(1<<uint(n[0]-'a')) != 0 }
		for _, src := range g.Nodes() {
			big := g.ReachAvoiding(src, blockedSmall) // fewer blocked
			small := g.ReachAvoiding(src, blockedBig) // more blocked
			for n := range small {
				if !big[n] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
