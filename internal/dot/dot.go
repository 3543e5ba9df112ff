// Package dot renders specifications, user views, runs and provenance
// results as Graphviz DOT and as plain-text adjacency listings. The paper's
// prototype displays provenance graphically (Figure 9); on the command line
// we emit DOT for external rendering and a deterministic textual form for
// terminals and golden tests.
package dot

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/provenance"
	"repro/internal/run"
	"repro/internal/spec"
)

// escape quotes a DOT identifier.
func escape(s string) string {
	return `"` + strings.ReplaceAll(s, `"`, `\"`) + `"`
}

// Graph renders a bare graph.
func Graph(name string, g *graph.Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %s {\n  rankdir=LR;\n", escape(name))
	for _, n := range g.SortedNodes() {
		shape := "box"
		if n == spec.Input || n == spec.Output {
			shape = "ellipse"
		}
		fmt.Fprintf(&b, "  %s [shape=%s];\n", escape(n), shape)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  %s -> %s;\n", escape(e.From), escape(e.To))
	}
	b.WriteString("}\n")
	return b.String()
}

// Spec renders a workflow specification, coloring scientific modules.
func Spec(s *spec.Spec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %s {\n  rankdir=LR;\n", escape(s.Name()))
	fmt.Fprintf(&b, "  %s [shape=ellipse];\n  %s [shape=ellipse];\n", escape(spec.Input), escape(spec.Output))
	for _, m := range s.Modules() {
		attrs := "shape=box"
		if m.Kind == spec.KindScientific {
			attrs += ", style=filled, fillcolor=lightgrey"
		}
		label := m.Name
		if m.Desc != "" {
			label += "\\n" + m.Desc
		}
		fmt.Fprintf(&b, "  %s [%s, label=%s];\n", escape(m.Name), attrs, escape(label))
	}
	for _, e := range s.Edges() {
		fmt.Fprintf(&b, "  %s -> %s;\n", escape(e.From), escape(e.To))
	}
	b.WriteString("}\n")
	return b.String()
}

// View renders a user view's induced specification, with composite members
// in the node labels (Figure 3 style).
func View(name string, v *core.UserView) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %s {\n  rankdir=LR;\n", escape(name))
	ind := v.Induced()
	for _, n := range ind.SortedNodes() {
		if n == spec.Input || n == spec.Output {
			fmt.Fprintf(&b, "  %s [shape=ellipse];\n", escape(n))
			continue
		}
		members := v.Members(n)
		label := n
		if len(members) > 1 || (len(members) == 1 && members[0] != n) {
			label += "\\n{" + strings.Join(members, ", ") + "}"
		}
		fmt.Fprintf(&b, "  %s [shape=box, label=%s];\n", escape(n), escape(label))
	}
	for _, e := range ind.Edges() {
		fmt.Fprintf(&b, "  %s -> %s;\n", escape(e.From), escape(e.To))
	}
	b.WriteString("}\n")
	return b.String()
}

// Run renders a workflow run with edge data labels (Figure 2 style).
func Run(r *run.Run) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %s {\n  rankdir=LR;\n", escape(r.ID()))
	fmt.Fprintf(&b, "  %s [shape=ellipse];\n  %s [shape=ellipse];\n", escape(spec.Input), escape(spec.Output))
	for _, st := range r.Steps() {
		fmt.Fprintf(&b, "  %s [shape=box, label=%s];\n", escape(st.ID), escape(st.ID+":"+st.Module))
	}
	for _, f := range r.Flows() {
		fmt.Fprintf(&b, "  %s -> %s [label=%s];\n",
			escape(f.From), escape(f.To), escape(run.FormatDataSet(f.Data)))
	}
	b.WriteString("}\n")
	return b.String()
}

// Mapping renders the composite executions of a run under a view.
func Mapping(m *composite.Mapping) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %s {\n  rankdir=LR;\n", escape(m.Run().ID()+"@view"))
	for _, ex := range m.Executions() {
		label := fmt.Sprintf("%s:%s\\n{%s}", ex.ID, ex.Composite, strings.Join(ex.Steps, ", "))
		fmt.Fprintf(&b, "  %s [shape=box, style=dashed, label=%s];\n", escape(ex.ID), escape(label))
	}
	for _, e := range m.Edges() {
		fmt.Fprintf(&b, "  %s -> %s [label=%s];\n",
			escape(e.From), escape(e.To), escape(run.FormatDataSet(e.Data)))
	}
	b.WriteString("}\n")
	return b.String()
}

// Provenance renders a provenance query result (Figure 9 style).
func Provenance(res *provenance.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %s {\n  rankdir=LR;\n", escape("prov_"+res.Root))
	fmt.Fprintf(&b, "  %s [shape=octagon, style=filled, fillcolor=gold];\n", escape(res.Root))
	for _, ex := range res.Executions {
		label := ex.ID + ":" + ex.Composite
		fmt.Fprintf(&b, "  %s [shape=box, label=%s];\n", escape(ex.ID), escape(label))
	}
	for _, e := range res.Edges {
		fmt.Fprintf(&b, "  %s -> %s [label=%s];\n",
			escape(e.From), escape(e.To), escape(run.FormatDataSet(e.Data)))
	}
	b.WriteString("}\n")
	return b.String()
}

// Text renders a deterministic plain-text adjacency listing of a graph,
// one "node -> succ, succ" line per node, suitable for terminals.
func Text(g *graph.Graph) string {
	var b strings.Builder
	for _, n := range g.SortedNodes() {
		succ := g.Successors(n)
		sort.Strings(succ)
		if len(succ) == 0 {
			fmt.Fprintf(&b, "%s\n", n)
			continue
		}
		fmt.Fprintf(&b, "%s -> %s\n", n, strings.Join(succ, ", "))
	}
	return b.String()
}

// ProvenanceText renders a provenance result as indented text: each visible
// execution with its inputs, followed by the visible data set.
func ProvenanceText(res *provenance.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "deep provenance of %s (run %s)\n", res.Root, res.RunID)
	if res.External {
		b.WriteString("  (external input: provenance is the recorded metadata)\n")
	}
	for _, ex := range res.Executions {
		fmt.Fprintf(&b, "  %s:%s steps=%s in=%s out=%s\n",
			ex.ID, ex.Composite, "{"+strings.Join(ex.Steps, ",")+"}",
			run.FormatDataSet(ex.Inputs), run.FormatDataSet(ex.Outputs))
	}
	fmt.Fprintf(&b, "  data: %s (%d objects, %d executions)\n",
		run.FormatDataSet(res.Data), res.NumData(), res.NumSteps())
	return b.String()
}
