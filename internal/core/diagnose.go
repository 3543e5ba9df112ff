package core

import (
	"fmt"
	"sort"
)

// Diagnostics for hand-built views. CheckAll stops at the first violation,
// which suits assertions; an interactive view editor (the prototype lets
// users regroup modules freely) wants the complete list, so the user can
// see every grouping that breaks dataflow at once.

// ViolationKind classifies a diagnostic finding.
type ViolationKind string

// The violation kinds, one per property of Section III.
const (
	ViolationWellFormed ViolationKind = "property1-well-formed"
	ViolationPreserves  ViolationKind = "property2-preserves-dataflow"
	ViolationComplete   ViolationKind = "property3-complete"
)

// Violation is one diagnostic finding.
type Violation struct {
	Kind ViolationKind
	// Composite names the offending composite for Property 1 violations.
	Composite string
	// Edge is the offending specification edge for Property 2/3 violations.
	Edge [2]string
	// Pair is the (r, r') endpoint pair whose nr-path evidence fails.
	Pair [2]string
	// Detail is a human-readable explanation.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string { return string(v.Kind) + ": " + v.Detail }

// Diagnose runs all three property checks and returns every violation,
// deterministically ordered. An empty result means the view is good. It
// takes only a relevant set that CheckAll accepts; names outside the
// specification are ignored.
func Diagnose(v *UserView, relevant []string) []Violation {
	var out []Violation
	c, _ := v.checker(v.inSpec(relevant)) // inSpec leaves nothing to reject
	for i, n := range v.crowding(c.rel) {
		if n > 1 {
			name, found := v.names[i], v.relevantIn(i, c.relevant)
			out = append(out, Violation{
				Kind:      ViolationWellFormed,
				Composite: name,
				Detail:    fmt.Sprintf("composite %q contains %d relevant modules %v", name, len(found), found),
			})
		}
	}
	c.violations(v, func(x witness, p2 bool) bool {
		viol := Violation{Kind: ViolationPreserves, Edge: [2]string{x.u, x.w}, Pair: [2]string{x.r, x.rp}}
		if p2 {
			viol.Detail = fmt.Sprintf("edge (%s,%s) makes %s appear to feed %s via (%s,%s), but no such dataflow exists",
				x.u, x.w, x.r, x.rp, x.a, x.b)
		} else {
			viol.Kind = ViolationComplete
			viol.Detail = fmt.Sprintf("dataflow %s -> %s through edge (%s,%s) is hidden: induced edge (%s,%s) lost it",
				x.r, x.rp, x.u, x.w, x.a, x.b)
		}
		out = append(out, viol)
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		if out[i].Edge != out[j].Edge {
			return out[i].Edge[0]+out[i].Edge[1] < out[j].Edge[0]+out[j].Edge[1]
		}
		return out[i].Pair[0]+out[i].Pair[1] < out[j].Pair[0]+out[j].Pair[1]
	})
	return out
}
