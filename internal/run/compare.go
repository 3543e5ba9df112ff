package run

import (
	"fmt"
	"sort"
	"strings"
)

// Run comparison. The paper's motivation is reproducibility — "scientists
// must be able to determine what sequence of steps and input data were
// used" so results can be reproduced — and its related work points at
// comparative visualization of runs. Compare summarizes how two runs of
// the same specification differ structurally: which modules executed a
// different number of times (loops converging after different iteration
// counts are the paper's canonical source of run-to-run variation), and
// how the sizes diverge.

// ModuleDelta records a module whose execution count differs between runs.
type ModuleDelta struct {
	Module string
	CountA int
	CountB int
}

// Diff is the structural comparison of two runs.
type Diff struct {
	RunA, RunB string
	// SpecMismatch is set when the runs execute different specifications;
	// the remaining fields are still filled.
	SpecMismatch bool
	// ModuleDeltas lists modules with differing execution counts, sorted.
	ModuleDeltas []ModuleDelta
	StatsA       Stats
	StatsB       Stats
}

// Compare computes the structural diff of two runs.
func Compare(a, b *Run) Diff {
	d := Diff{
		RunA:         a.ID(),
		RunB:         b.ID(),
		SpecMismatch: a.SpecName() != b.SpecName(),
		StatsA:       a.Stats(),
		StatsB:       b.Stats(),
	}
	counts := make(map[string][2]int)
	for i, r := range []*Run{a, b} {
		for s := int32(0); s < int32(r.NumSteps()); s++ {
			m := r.ix.StepModule(s)
			c := counts[m]
			c[i]++
			counts[m] = c
		}
	}
	for module, c := range counts {
		if c[0] != c[1] {
			d.ModuleDeltas = append(d.ModuleDeltas, ModuleDelta{Module: module, CountA: c[0], CountB: c[1]})
		}
	}
	sort.Slice(d.ModuleDeltas, func(i, j int) bool { return d.ModuleDeltas[i].Module < d.ModuleDeltas[j].Module })
	return d
}

// SameShape reports whether the two runs executed every module the same
// number of times over the same specification. Data ids naturally differ
// between runs, so shape equality is the meaningful reproducibility check.
func (d Diff) SameShape() bool {
	return !d.SpecMismatch && len(d.ModuleDeltas) == 0
}

// String renders a human-readable summary.
func (d Diff) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "compare %s vs %s:", d.RunA, d.RunB)
	if d.SpecMismatch {
		b.WriteString(" DIFFERENT SPECIFICATIONS;")
	}
	if d.SameShape() {
		b.WriteString(" same shape;")
	}
	fmt.Fprintf(&b, " steps %d/%d, data %d/%d, depth %d/%d",
		d.StatsA.Steps, d.StatsB.Steps, d.StatsA.Data, d.StatsB.Data,
		d.StatsA.Depth, d.StatsB.Depth)
	for _, md := range d.ModuleDeltas {
		fmt.Fprintf(&b, "\n  %s executed %dx vs %dx", md.Module, md.CountA, md.CountB)
	}
	return b.String()
}
