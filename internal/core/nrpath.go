package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/spec"
)

// Analysis precomputes the nr-path machinery of Section III for one
// (specification, relevant set) pair:
//
//	rpred(n) = { r in R ∪ {input}  | there is an nr-path from r to n }
//	rsucc(n) = { r in R ∪ {output} | there is an nr-path from n to r }
//
// where an nr-path is a path containing no relevant *intermediate* module.
// Both are bitset rows |R|+1 bits wide, one per node of the module table:
// bit i < |R| stands for rel[i], the relevant modules in the caller's order
// with duplicates removed, and bit |R| for INPUT in rpred and OUTPUT in
// rsucc. The rows come from |R|+1 filtered BFS passes in each direction,
// giving the O(|N|² + |E|) bound the paper states for the builder.
//
// src and tgt are the rows of the property checkers, Src(u) and Tgt(w): the
// same as rpred and rsucc, except that a relevant module, INPUT and OUTPUT
// stand for themselves alone.
type Analysis struct {
	s            *spec.Spec
	mods         *modules
	rel          []int32 // relevant module ids, bit order
	relevant     []bool  // node id -> in R
	rpred, rsucc []bitset.Set
	src, tgt     []bitset.Set
}

// NewAnalysis validates the relevant set (every entry must be a module of
// s, duplicates are tolerated) and computes rpred/rsucc for every module.
func NewAnalysis(s *spec.Spec, relevant []string) (*Analysis, error) {
	return newAnalysis(s, newModules(s), relevant)
}

func newAnalysis(s *spec.Spec, t *modules, relevant []string) (*Analysis, error) {
	rel, isRel, err := relevantIDs(s, t, relevant)
	if err != nil {
		return nil, err
	}
	R, nodes := len(rel), len(t.names)
	a := &Analysis{s: s, mods: t, rel: rel, relevant: isRel, rpred: newRows(nodes, R+1), rsucc: newRows(nodes, R+1)}
	nrRows(t.succ, append(rel[:R:R], int32(t.n)), isRel, a.rpred)
	nrRows(t.pred, append(rel[:R:R], int32(t.n+1)), isRel, a.rsucc)
	a.src, a.tgt = slices.Clone(a.rpred), slices.Clone(a.rsucc)
	self := newRows(R+1, R+1)
	for i := range self {
		self[i].Add(int32(i))
	}
	for i, r := range rel {
		a.src[r], a.tgt[r] = self[i], self[i]
	}
	a.src[t.n], a.tgt[t.n+1] = self[R], self[R]
	return a, nil
}

// relevantIDs validates relevant against t and returns its module ids,
// duplicates removed with the first occurrence kept in place, and R's
// membership by node id.
func relevantIDs(s *spec.Spec, t *modules, relevant []string) ([]int32, []bool, error) {
	rel, in := make([]int32, 0, len(relevant)), make([]bool, len(t.names))
	for _, r := range relevant {
		id, ok := t.module(r)
		if !ok {
			return nil, nil, fmt.Errorf("core: relevant module %q not in spec %q: %w", r, s.Name(), ErrBadRelevant)
		}
		if !in[id] {
			in[id] = true
			rel = append(rel, id)
		}
	}
	return rel, in, nil
}

// Relevant returns the sorted relevant modules.
func (a *Analysis) Relevant() []string {
	out := make([]string, len(a.rel))
	for i, r := range a.rel {
		out[i] = a.mods.names[r]
	}
	sort.Strings(out)
	return out
}

// IsRelevant reports whether module n is in R.
func (a *Analysis) IsRelevant(n string) bool {
	id, ok := a.mods.module(n)
	return ok && a.relevant[id]
}

// RPred returns rpred(n), sorted.
func (a *Analysis) RPred(n string) []string { return a.names(a.rpred, n, spec.Input) }

// RSucc returns rsucc(n), sorted.
func (a *Analysis) RSucc(n string) []string { return a.names(a.rsucc, n, spec.Output) }

// names spells out node n's row; end names its last bit.
func (a *Analysis) names(rows []bitset.Set, n, end string) []string {
	id, ok := a.mods.id[n]
	if !ok {
		return nil
	}
	var out []string
	rows[id].Each(func(i int32) {
		name := end
		if int(i) < len(a.rel) {
			name = a.mods.names[a.rel[i]]
		}
		out = append(out, name)
	})
	sort.Strings(out)
	return out
}

// newRows returns nodes empty rows of width bits, cut from one array.
func newRows(nodes, width int) []bitset.Set {
	words := (width + 63) / 64
	flat, rows := make(bitset.Set, nodes*words), make([]bitset.Set, nodes)
	for i := range rows {
		rows[i] = flat[i*words : (i+1)*words : (i+1)*words]
	}
	return rows
}

// nrRows sets bit i of rows[v] for every node v reached from sources[i] by
// a path of length >= 1 over adj whose intermediate nodes are not relevant:
// a relevant node is recorded where a path ends but never expanded.
func nrRows(adj csr, sources []int32, relevant []bool, rows []bitset.Set) {
	seen, queue := make([]int32, len(rows)), make([]int32, 0, len(rows))
	for i, s := range sources {
		stamp := int32(i + 1)
		queue = append(queue[:0], s)
		for h := 0; h < len(queue); h++ {
			for _, v := range adj.row(queue[h]) {
				rows[v].Add(int32(i))
				if !relevant[v] && seen[v] != stamp {
					seen[v] = stamp
					queue = append(queue, v)
				}
			}
		}
	}
}
