package core

import (
	"fmt"

	"repro/internal/spec"
)

// The paper leaves open whether a polynomial-time algorithm exists that
// produces a *minimum* good user view (smallest size satisfying Properties
// 1-3); RelevUserViewBuilder only guarantees a *minimal* one (no pairwise
// merge possible). MinimumView settles individual instances by exhaustive
// search over set partitions, which is feasible for the small hand-built
// specifications used to study the gap (Figure 7) — the Bell number of 10
// modules is 115975.

// MaxMinimumSearchModules bounds the exhaustive search.
const MaxMinimumSearchModules = 10

// MinimumView returns a smallest user view of s satisfying Properties 1-3
// for the given relevant set, found by exhaustive enumeration of the set
// partitions of the modules. It fails for specifications with more than
// MaxMinimumSearchModules modules.
//
// Among equal-size optima the partition generated first in restricted-growth
// order wins, making the result deterministic. Each partition is checked on
// its owner array by the pass CheckAll runs, over rows of the specification
// computed once.
func MinimumView(s *spec.Spec, relevant []string) (*UserView, error) {
	t := newModules(s)
	if t.n > MaxMinimumSearchModules {
		return nil, fmt.Errorf("core: %d modules exceed exhaustive search bound %d", t.n, MaxMinimumSearchModules)
	}
	a, err := newAnalysis(s, t, relevant)
	if err != nil {
		return nil, err // validates the relevant set
	}
	c := &checker{Analysis: a}
	var best *UserView
	bestSize := t.n + 1
	// Enumerate partitions via restricted growth strings: assign[i] is the
	// block of module i, and assign[i] <= 1+max(assign[0..i-1]).
	assign := make([]int32, t.n)
	var rec func(i, maxUsed int)
	rec = func(i, maxUsed int) {
		if i == t.n {
			if size := maxUsed + 1; size < bestSize && c.holds(assign, size) {
				blocks := make(map[string][]string, size)
				for id, b := range assign {
					name := fmt.Sprintf("B%d", b)
					blocks[name] = append(blocks[name], t.names[id])
				}
				if v, err := newUserView(s, t, blocks); err == nil { // B<k> may shadow a module
					best, bestSize = v, size
				}
			}
			return
		}
		for b := 0; b <= maxUsed+1; b++ {
			// Prune: even if all remaining modules join existing blocks, the
			// final size is at least max(maxUsed, b)+1.
			mu := max(maxUsed, b)
			if mu+1 >= bestSize {
				continue
			}
			assign[i] = int32(b)
			rec(i+1, mu)
		}
	}
	if t.n == 0 {
		return nil, fmt.Errorf("core: empty specification: %w", ErrBadView)
	}
	rec(0, -1)
	if best == nil {
		return nil, fmt.Errorf("core: no view satisfies properties 1-3 (unexpected; UAdmin always does)")
	}
	return best, nil
}
