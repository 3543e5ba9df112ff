package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/spec"
)

// BuildRelevant is algorithm RelevUserViewBuilder (Figure 5): given a
// workflow specification and a set of relevant modules R, it constructs a
// user view that satisfies Properties 1-3 and is minimal (Theorem 1).
//
// The algorithm has three steps:
//
//  1. For each relevant module r, create the relevant composite
//     C(r) = in(r) ∪ out(r) ∪ {r}, where in(r) collects the non-relevant
//     modules whose only relevant successor (over nr-paths) is r, and
//     out(r) the still-unmarked non-relevant modules whose only relevant
//     predecessor is r.
//  2. Group the remaining non-relevant modules by their exact
//     (rpred, rsucc) signature.
//  3. Greedily merge pairs of non-relevant composites when the merge does
//     not manufacture nr-paths absent from the specification, checked by
//     comparing the relevant predecessors/successors of the merged block's
//     entry and exit points with the block-wide unions (Line 23).
//
// Relevant composites are named after their relevant module; non-relevant
// composites are named NR1, NR2, ... in deterministic order.
func BuildRelevant(s *spec.Spec, relevant []string) (*UserView, error) {
	a, err := NewAnalysis(s, relevant)
	if err != nil {
		return nil, err
	}
	return BuildFromAnalysis(a)
}

// BuildFromAnalysis runs the builder over a precomputed Analysis, allowing
// callers that already paid for rpred/rsucc (e.g. the interactive
// UserViewBuilder UI loop) to skip recomputation.
func BuildFromAnalysis(a *Analysis) (*UserView, error) {
	// block[id] is the composite a module has joined: bit i for the relevant
	// composite of rel[i], |R|+k for the k-th non-relevant block, and -1
	// for unmarked modules, INPUT and OUTPUT.
	t, R := a.mods, int32(len(a.rel))
	block := make([]int32, len(t.names))
	for id := range block {
		block[id] = -1
	}
	for i, r := range a.rel {
		block[r] = int32(i)
	}
	// Step 1a (Lines 3-5): in(r) = { n ∈ N\R : rsucc(n) = {r} }; then
	// Step 1b (Lines 6-8): out(r) = { n ∈ N\R unmarked : rpred(n) = {r} }.
	one := make([]int32, 0, 1)
	for _, rows := range [2][]bitset.Set{a.rsucc, a.rpred} {
		for id := 0; id < t.n; id++ {
			if block[id] < 0 && rows[id].Count() == 1 {
				if r := rows[id].Members(one[:0])[0]; r < R {
					block[id] = r
				}
			}
		}
	}

	// Step 2 (Lines 11-16): group unmarked non-relevant modules by their
	// (rpred, rsucc) rows. Ids follow names, so blocks come out ordered by
	// their smallest member.
	type nrBlock struct {
		members    []int32
		pred, succ bitset.Set // rpredM, rsuccM
	}
	var nrc []*nrBlock
	bySig := make(map[string]int32)
	var key []byte
	for id := 0; id < t.n; id++ {
		if block[id] >= 0 {
			continue
		}
		key = appendRow(appendRow(key[:0], a.rpred[id]), a.rsucc[id])
		b, ok := bySig[string(key)]
		if !ok {
			b = R + int32(len(nrc))
			bySig[string(key)] = b
			nrc = append(nrc, &nrBlock{pred: a.rpred[id].Clone(), succ: a.rsucc[id].Clone()})
		}
		block[id] = b
		nrc[b-R].members = append(nrc[b-R].members, int32(id))
	}

	// Step 3 (Lines 17-25): merge non-relevant composites while legal: a
	// member with an edge leaving M (V+) must have rpred equal to the
	// merged rpredM, one with an edge entering M (V-) rsucc equal to rsuccM.
	predM, succM := bitset.New(int(R)+1), bitset.New(int(R)+1)
	crosses := func(row []int32, x, y int32) bool {
		return slices.ContainsFunc(row, func(w int32) bool { return block[w] != x && block[w] != y })
	}
	legalMerge := func(x, y int32) bool {
		copy(predM, nrc[x-R].pred)
		predM.Or(nrc[y-R].pred)
		copy(succM, nrc[x-R].succ)
		succM.Or(nrc[y-R].succ)
		for _, b := range [2]int32{x, y} {
			for _, u := range nrc[b-R].members {
				if !slices.Equal(a.rpred[u], predM) && crosses(t.succ.row(u), x, y) ||
					!slices.Equal(a.rsucc[u], succM) && crosses(t.pred.row(u), x, y) {
					return false
				}
			}
		}
		return true
	}
	// Fixpoint over pairwise merges. Each successful merge absorbs block j
	// into block i and rescans i's remaining partners in place; the outer
	// loop repeats until a full pass makes no change, so the result is the
	// same fixpoint the naive restart-from-scratch loop reaches, without
	// its cubic rescanning.
	live := make([]int32, len(nrc))
	for i := range live {
		live[i] = R + int32(i)
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(live); i++ {
			for j := i + 1; j < len(live); j++ {
				x, y := nrc[live[i]-R], nrc[live[j]-R]
				if !legalMerge(live[i], live[j]) {
					continue
				}
				for _, u := range y.members {
					block[u] = live[i]
				}
				x.members = append(x.members, y.members...)
				x.pred.Or(y.pred)
				x.succ.Or(y.succ)
				live = slices.Delete(live, j, j+1)
				changed = true
				j--
			}
		}
	}

	// Assemble the view. Relevant composites keep their module's name (the
	// composite "takes on the meaning of the relevant module it contains");
	// non-relevant composites are numbered by their smallest member.
	blocks := make(map[string][]string, len(a.rel)+len(live))
	for id := 0; id < t.n; id++ {
		if b := block[id]; b < R {
			name := t.names[a.rel[b]]
			blocks[name] = append(blocks[name], t.names[id])
		}
	}
	for _, b := range live {
		slices.Sort(nrc[b-R].members)
	}
	sort.Slice(live, func(i, j int) bool { return nrc[live[i]-R].members[0] < nrc[live[j]-R].members[0] })
	for i, b := range live {
		name := fmt.Sprintf("NR%d", i+1)
		for _, u := range nrc[b-R].members {
			blocks[name] = append(blocks[name], t.names[u])
		}
	}
	return newUserView(a.s, t, blocks)
}

// appendRow appends row's words to a map key.
func appendRow(key []byte, row bitset.Set) []byte {
	for _, w := range row {
		key = binary.LittleEndian.AppendUint64(key, w)
	}
	return key
}
