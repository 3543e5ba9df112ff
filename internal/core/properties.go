package core

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/spec"
)

// This file implements the checkers for the three properties of Section III
// plus the minimality condition. All checkers return nil when the property
// holds and a descriptive error (wrapping ErrProperty*) when it does not, so
// tests can both assert success and inspect counter-examples. A relevant
// module outside the specification is an ErrBadRelevant, as it is for the
// builder; a duplicate counts once, at its first place.
//
// Properties 2 and 3 are one pass over the specification's edges. An edge
// (u, w) lies on an nr-path r -> r' exactly when r is in Src(u) and r' in
// Tgt(w) (see Analysis). A(c) and B(c) are the same rows for a composite c
// of the induced graph, mapped back through C: bit i of A(c) is set when
// C(r_i) is c or reaches it by an nr-path. An edge with C(u) != C(w) breaks
// Property 2 at the pairs of A(C(u)) x B(C(w)) outside Src(u) x Tgt(w), and
// Property 3 at the pairs of Src(u) x Tgt(w) outside A(C(u)) x B(C(w)):
// four row comparisons per edge instead of (|R|+1)² lookups.

// Property violation sentinels.
var (
	ErrProperty1 = fmt.Errorf("core: property 1 (well-formed) violated")
	ErrProperty2 = fmt.Errorf("core: property 2 (preserves dataflow) violated")
	ErrProperty3 = fmt.Errorf("core: property 3 (complete w.r.t. dataflow) violated")
)

// WellFormed checks Property 1: every composite module of v contains at
// most one element of the relevant set.
func WellFormed(v *UserView, relevant []string) error {
	rel, isRel, err := relevantIDs(v.spec, v.mods, relevant)
	if err != nil {
		return err
	}
	for c, n := range v.crowding(rel) {
		if n > 1 {
			return fmt.Errorf("%w: composite %q contains %v", ErrProperty1, v.names[c], v.relevantIn(c, isRel))
		}
	}
	return nil
}

// PreservesDataflow checks Property 2: every specification edge that
// induces an edge lying on an nr-path from C(r) to C(r') in the view must
// itself lie on an nr-path from r to r' in the specification. Violations
// mean the view makes users perceive dataflow that does not exist.
func PreservesDataflow(v *UserView, relevant []string) error {
	c, err := v.checker(relevant)
	if err != nil {
		return err
	}
	return c.firstBreak(v, true)
}

// CompleteWRTDataflow checks Property 3: every specification edge lying on
// an nr-path from r to r' that induces a view edge must have that induced
// edge on an nr-path from C(r) to C(r'). Violations mean the view hides
// dataflow that does exist.
func CompleteWRTDataflow(v *UserView, relevant []string) error {
	c, err := v.checker(relevant)
	if err != nil {
		return err
	}
	return c.firstBreak(v, false)
}

// CheckAll verifies Properties 1-3 in order and returns the first failure.
func CheckAll(v *UserView, relevant []string) error {
	if err := WellFormed(v, relevant); err != nil {
		return err
	}
	c, err := v.checker(relevant)
	if err != nil {
		return err
	}
	if err := c.firstBreak(v, true); err != nil {
		return err
	}
	return c.firstBreak(v, false)
}

// MergeWitness describes a pair of composites whose merge would still
// satisfy Properties 1-3, i.e. a witness that a view is not minimal.
type MergeWitness struct {
	A, B string
}

// Minimal checks the paper's minimality condition: no two composite modules
// of v can be replaced by their union while still satisfying Properties
// 1-3. It returns (true, nil) for a minimal view and (false, witness) with
// the first mergeable pair otherwise. It takes only a relevant set that
// CheckAll accepts; names outside the specification are ignored. The
// specification's rows are computed once, and each merge is probed on a
// copy of the owner array.
func Minimal(v *UserView, relevant []string) (bool, *MergeWitness) {
	a, _ := newAnalysis(v.spec, v.mods, v.inSpec(relevant)) // inSpec leaves nothing to reject
	c, k := &checker{Analysis: a}, len(v.names)
	merged := make([]int32, len(v.owner))
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			for id, o := range v.owner {
				if merged[id] = o; o == int32(j) {
					merged[id] = int32(i) // j is left empty
				}
			}
			if c.holds(merged, k) {
				return false, &MergeWitness{A: v.names[i], B: v.names[j]}
			}
		}
	}
	return true, nil
}

// crowding counts the relevant modules of every composite.
func (v *UserView) crowding(rel []int32) []int {
	out := make([]int, len(v.names))
	for _, r := range rel {
		out[v.owner[r]]++
	}
	return out
}

// relevantIn returns the relevant members of composite c, sorted.
func (v *UserView) relevantIn(c int, relevant []bool) []string {
	var out []string
	for id, o := range v.owner {
		if int(o) == c && relevant[id] {
			out = append(out, v.mods.names[id])
		}
	}
	return out
}

// inSpec drops the names that are not modules of v's specification.
func (v *UserView) inSpec(relevant []string) []string {
	var out []string
	for _, r := range relevant {
		if _, ok := v.mods.module(r); ok {
			out = append(out, r)
		}
	}
	return out
}

// checker adds to an Analysis the view side of the pass for one partition:
// owner maps module ids to k composites, some possibly empty; INPUT and
// OUTPUT are nodes k and k+1 of the induced graph; va and vb hold A and B.
type checker struct {
	*Analysis
	owner  []int32
	k      int
	cedges [][2]int32 // (C(u), C(w)) for every specification edge, in order
	va, vb []bitset.Set
}

// checker returns the pass over v's own partition.
func (v *UserView) checker(relevant []string) (*checker, error) {
	a, err := newAnalysis(v.spec, v.mods, relevant)
	if err != nil {
		return nil, err
	}
	c := &checker{Analysis: a}
	c.view(v.owner, len(v.names), true)
	return c, nil
}

// view computes the view side for the partition owner of k composites and
// reports whether it satisfies Property 1. Unless all is set, a partition
// that does not is rejected before any row is built.
func (c *checker) view(owner []int32, k int, all bool) bool {
	n, R := int32(c.mods.n), len(c.rel)
	c.owner, c.k = owner, k
	relQ, ends := make([]bool, k+2), make([]int32, R, R+1) // ends[i] = C(r_i)
	wellFormed := true
	for i, r := range c.rel {
		ends[i] = owner[r]
		wellFormed = wellFormed && !relQ[owner[r]]
		relQ[owner[r]] = true
	}
	if !wellFormed && !all {
		return false
	}
	cOf := func(u int32) int32 {
		if u < n {
			return owner[u]
		}
		return int32(k) + u - n
	}
	c.cedges = c.cedges[:0]
	var cross [][2]int32
	for _, e := range c.mods.edges {
		ce := [2]int32{cOf(e[0]), cOf(e[1])}
		c.cedges = append(c.cedges, ce)
		if ce[0] != ce[1] {
			cross = append(cross, ce)
		}
	}
	var fwd, back csr
	fwd.fill(k+2, cross, 0)
	back.fill(k+2, cross, 1)
	c.va, c.vb = newRows(k+2, R+1), newRows(k+2, R+1)
	nrRows(fwd, append(ends, int32(k)), relQ, c.va)
	nrRows(back, append(ends, int32(k+1)), relQ, c.vb)
	// A relevant composite, like a relevant module, stands for its own
	// sources alone, and so do INPUT and OUTPUT.
	for _, q := range ends {
		clear(c.va[q])
		clear(c.vb[q])
	}
	for i, q := range ends {
		c.va[q].Add(int32(i))
		c.vb[q].Add(int32(i))
	}
	c.va[k].Add(int32(R))
	c.vb[k+1].Add(int32(R))
	return wellFormed
}

// breaks reports whether specification edge e breaks Property 2 and
// Property 3 under the partition of the last view call.
func (c *checker) breaks(e int) (p2, p3 bool) {
	ce, ed := c.cedges[e], c.mods.edges[e]
	if ce[0] == ce[1] {
		return false, false // internal to a composite: induces nothing
	}
	s, t, a, b := c.src[ed[0]], c.tgt[ed[1]], c.va[ce[0]], c.vb[ce[1]]
	return !a.Empty() && !b.Empty() && !(a.SubsetOf(s) && b.SubsetOf(t)),
		!s.Empty() && !t.Empty() && !(s.SubsetOf(a) && t.SubsetOf(b))
}

// holds reports whether the partition owner of k composites satisfies
// Properties 1-3.
func (c *checker) holds(owner []int32, k int) bool {
	if !c.view(owner, k, false) {
		return false
	}
	for e := range c.cedges {
		if p2, p3 := c.breaks(e); p2 || p3 {
			return false
		}
	}
	return true
}

// witness names one broken pair: the edge (u, w), its induced edge (a, b),
// the endpoints r and r' and their composites.
type witness struct{ u, w, a, b, r, rp, cr, crp string }

// violations calls fn for every pair (r_i, r'_j) at which an edge of v's
// specification breaks Property 2 (p2: the view shows an nr-path the edge
// is not on) or Property 3 (the edge is on an nr-path the view hides), in
// Graph.EachEdge order, then r and r' in the caller's relevant order with
// INPUT and OUTPUT last. fn returns false to stop.
func (c *checker) violations(v *UserView, fn func(x witness, p2 bool) bool) {
	end := func(bit int32, last string) (string, string) { // r and C(r)
		if int(bit) < len(c.rel) {
			return c.mods.names[c.rel[bit]], v.names[c.owner[c.rel[bit]]]
		}
		return last, last
	}
	node := func(q int32) string { // a node of the induced graph
		if int(q) < c.k {
			return v.names[q]
		}
		return c.mods.names[c.mods.n+int(q)-c.k]
	}
	width := int32(len(c.rel) + 1)
	for e, ed := range c.mods.edges {
		if p2, p3 := c.breaks(e); !p2 && !p3 {
			continue
		}
		ce := c.cedges[e]
		s, t, a, b := c.src[ed[0]], c.tgt[ed[1]], c.va[ce[0]], c.vb[ce[1]]
		x := witness{u: c.mods.names[ed[0]], w: c.mods.names[ed[1]], a: node(ce[0]), b: node(ce[1])}
		for i := int32(0); i < width; i++ {
			x.r, x.cr = end(i, spec.Input)
			for j := int32(0); j < width; j++ {
				onView, onSpec := a.Has(i) && b.Has(j), s.Has(i) && t.Has(j)
				if onView == onSpec {
					continue
				}
				if x.rp, x.crp = end(j, spec.Output); !fn(x, onView) {
					return
				}
			}
		}
	}
}

// firstBreak returns the error for v's first violation of Property 2 (p2)
// or else Property 3.
func (c *checker) firstBreak(v *UserView, p2 bool) (err error) {
	c.violations(v, func(x witness, isP2 bool) bool {
		switch {
		case isP2 != p2:
			return true
		case p2:
			err = fmt.Errorf("%w: edge (%s,%s) induces (%s,%s) on an nr-path %s->%s in the view, but is on no nr-path %s->%s in the spec",
				ErrProperty2, x.u, x.w, x.a, x.b, x.cr, x.crp, x.r, x.rp)
		default:
			err = fmt.Errorf("%w: edge (%s,%s) on nr-path %s->%s in the spec induces (%s,%s), which is on no nr-path %s->%s in the view",
				ErrProperty3, x.u, x.w, x.r, x.rp, x.a, x.b, x.cr, x.crp)
		}
		return false
	})
	return err
}
