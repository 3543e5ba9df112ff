package provenance

import (
	"sort"

	"repro/internal/composite"
	"repro/internal/run"
	"repro/internal/spec"
)

// The reference implementation the engine is held to. It shares nothing
// with the production path beyond composite.Build (which package composite
// holds to a string-world oracle of its own): closures are the paper's
// CONNECT BY over the run's string-keyed relations, and the projectors walk
// every execution tuple with map lookups — no interning, no bitsets.

// oracleClosure returns the UAdmin closure of d: backward over
// Producer/InputsOf (provenance) or forward over Consumers/OutputsOf
// (derivation), a breadth-first walk that alternates data and steps.
func oracleClosure(r *run.Run, d string, forward bool) (steps, data map[string]bool) {
	steps, data = map[string]bool{}, map[string]bool{d: true}
	for frontier := []string{d}; len(frontier) > 0; {
		var next []string
		for _, x := range frontier {
			var ss []string
			if forward {
				ss = r.Consumers(x)
			} else if p, ok := r.Producer(x); ok && p != "" {
				ss = []string{p}
			}
			for _, s := range ss {
				if steps[s] {
					continue
				}
				steps[s] = true
				ds := r.InputsOf(s)
				if forward {
					ds = r.OutputsOf(s)
				}
				for _, y := range ds {
					if !data[y] {
						data[y] = true
						next = append(next, y)
					}
				}
			}
		}
		frontier = next
	}
	return steps, data
}

// oracleVisible lists the executions that contain a closure step, in the
// mapping's topological order.
func oracleVisible(m *composite.Mapping, steps map[string]bool) ([]*composite.Execution, map[string]bool) {
	var execs []*composite.Execution
	visible := map[string]bool{}
	for _, ex := range m.Executions() {
		for _, s := range ex.Steps {
			if steps[s] {
				visible[ex.ID] = true
				execs = append(execs, ex)
				break
			}
		}
	}
	return execs, visible
}

func oracleResult(r *run.Run, root string, execs []*composite.Execution, dataSet map[string]bool) *Result {
	res := &Result{RunID: r.ID(), Root: root, External: r.IsExternal(root), Executions: execs}
	if res.External {
		res.Metadata = r.InputMeta(root)
	}
	if r.HasData(root) {
		dataSet[root] = true
	}
	res.Data = make([]string, 0, len(dataSet))
	for d := range dataSet {
		res.Data = append(res.Data, d)
	}
	sortNatural(res.Data)
	return res
}

// oracleProject is the backward projector: the closure inputs of every
// visible execution, and an edge for each from INPUT or a visible producer.
// root is a data id, or an execution id (ExecutionProvenance), which seeds
// no data.
func oracleProject(m *composite.Mapping, root string, steps, data map[string]bool) *Result {
	execs, visible := oracleVisible(m, steps)
	dataSet := map[string]bool{}
	edgeData := map[[2]string][]string{}
	for _, ex := range execs {
		for _, d := range ex.Inputs {
			if !data[d] {
				continue
			}
			dataSet[d] = true
			src, ok := m.ProducerExecution(d)
			if !ok {
				src = spec.Input
			}
			if src == spec.Input || visible[src] {
				edgeData[[2]string{src, ex.ID}] = append(edgeData[[2]string{src, ex.ID}], d)
			}
		}
	}
	res := oracleResult(m.Run(), root, execs, dataSet)
	for key, ds := range edgeData {
		sortNatural(ds)
		res.Edges = append(res.Edges, Edge{From: key[0], To: key[1], Data: ds})
	}
	sort.Slice(res.Edges, func(i, j int) bool { return edgeLess(res.Edges[i], res.Edges[j]) })
	return res
}

// oracleProjectForward is the derivation projector: the closure outputs of
// every visible execution that are final or consumed by another visible
// execution.
func oracleProjectForward(m *composite.Mapping, root string, steps, data map[string]bool) *Result {
	r := m.Run()
	execs, visible := oracleVisible(m, steps)
	finals := map[string]bool{}
	for _, d := range r.FinalOutputs() {
		finals[d] = true
	}
	dataSet := map[string]bool{}
	for _, ex := range execs {
		for _, d := range ex.Outputs {
			if !data[d] {
				continue
			}
			leaves := finals[d]
			for _, c := range r.Consumers(d) {
				if id, ok := m.ExecutionOf(c); ok && id != ex.ID && visible[id] {
					leaves = true
				}
			}
			if leaves {
				dataSet[d] = true
			}
		}
	}
	return oracleResult(r, root, execs, dataSet)
}

// oracleExecutionProvenance unions the closures of an execution's inputs,
// adds the execution's own steps, and projects once.
func oracleExecutionProvenance(m *composite.Mapping, execID string) *Result {
	ex, _ := m.Execution(execID)
	steps, data := map[string]bool{}, map[string]bool{}
	for _, in := range ex.Inputs {
		s, d := oracleClosure(m.Run(), in, false)
		for k := range s {
			steps[k] = true
		}
		for k := range d {
			data[k] = true
		}
	}
	for _, s := range ex.Steps {
		steps[s] = true
	}
	return oracleProject(m, execID, steps, data)
}

func edgeLess(a, b Edge) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	return a.To < b.To
}

// The oracle's natural sort (d2 < d10), on strings; the engine never sorts
// names, its interned ids are natural ranks.
func sortNatural(xs []string) {
	sort.Slice(xs, func(i, j int) bool { return lessNatural(xs[i], xs[j]) })
}

func lessNatural(a, b string) bool {
	pa, na := splitNat(a)
	pb, nb := splitNat(b)
	if pa != pb {
		return pa < pb
	}
	if na != nb {
		return na < nb
	}
	return a < b
}

func splitNat(s string) (string, int) {
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	// No digit suffix, or one too long to fit an int without overflow
	// (> 18 digits): fall back to plain string comparison.
	if i == len(s) || len(s)-i > 18 {
		return s, -1
	}
	n := 0
	for _, c := range s[i:] {
		n = n*10 + int(c-'0')
	}
	return s[:i], n
}
