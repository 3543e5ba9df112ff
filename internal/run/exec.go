package run

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/graph"
	"repro/internal/spec"
	"repro/internal/wflog"
)

// The executor simulates one execution of a specification: it unrolls
// loops, instantiates steps, allocates data objects along the edges, and
// emits the event log a real workflow system would have produced. The
// provenance warehouse is loaded *from the log*, exactly as the paper's
// architecture prescribes — the executor stands in for Kepler/Taverna.

// ErrUnsupportedLoops is returned for specifications whose loops overlap
// (share modules); the generator never produces such specifications, and
// the paper's collected workflows (sequence/loop/parallel patterns) do not
// contain them either.
var ErrUnsupportedLoops = errors.New("run: overlapping loops unsupported")

// Config controls the executor. Ranges are inclusive [min, max]; a zero
// range selects the documented default.
type Config struct {
	// RunID names the produced run.
	RunID string
	// Seed makes the execution deterministic.
	Seed int64
	// UserInput is the number of data objects provided on each INPUT edge
	// (Table II's "user input" parameter). Default [1, 3].
	UserInput [2]int
	// DataPerStep is the number of data objects each step produces
	// (Table II's "data prod. by step"). Default [1, 2].
	DataPerStep [2]int
	// LoopIter is the number of iterations executed per loop (Table II's
	// "loop-iteration"). Default [1, 2].
	LoopIter [2]int
	// MaxSteps caps the unrolled size; loop iterations are reduced to fit.
	// Default 10000.
	MaxSteps int
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.UserInput == [2]int{} {
		out.UserInput = [2]int{1, 3}
	}
	if out.DataPerStep == [2]int{} {
		out.DataPerStep = [2]int{1, 2}
	}
	if out.LoopIter == [2]int{} {
		out.LoopIter = [2]int{1, 2}
	}
	if out.MaxSteps == 0 {
		out.MaxSteps = 10000
	}
	if out.RunID == "" {
		out.RunID = "run"
	}
	return out
}

func sample(rng *rand.Rand, r [2]int) int {
	lo, hi := r[0], r[1]
	if hi < lo {
		lo, hi = hi, lo
	}
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	return lo + rng.Intn(hi-lo+1)
}

// loop describes one unrollable loop: the back edge (tail -> head) and the
// set of body modules.
type loop struct {
	head, tail string
	body       map[string]bool
	iters      int
}

// Execute simulates one run of s and returns the run together with the
// event log it generated. The specification must be valid; its loops must
// be non-overlapping.
func Execute(s *spec.Spec, cfg Config) (*Run, []wflog.Event, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	c := cfg.withDefaults()
	rng := rand.New(rand.NewSource(c.Seed))

	skeleton, backEdges, loops, err := loopsOf(s)
	if err != nil {
		return nil, nil, err
	}
	// Sample iteration counts, then clamp to MaxSteps.
	base := s.NumModules()
	for _, l := range loops {
		l.iters = sample(rng, c.LoopIter)
	}
	clampIterations(loops, base, c.MaxSteps)

	unrolled, instanceModule, err := unroll(skeleton, backEdges, loops)
	if err != nil {
		return nil, nil, err
	}

	order, err := unrolled.TopoSort()
	if err != nil {
		return nil, nil, fmt.Errorf("run: unrolled graph cyclic: %w", err)
	}

	// Assign step ids S1.. in topological order and build the run.
	b := NewBuilder(c.RunID, s.Name())
	stepID := make(map[string]string, len(order))
	n := 0
	for _, inst := range order {
		if inst == spec.Input || inst == spec.Output {
			continue
		}
		n++
		id := "S" + strconv.Itoa(n)
		stepID[inst] = id
		if err := b.AddStep(id, instanceModule[inst]); err != nil {
			return nil, nil, err
		}
	}

	// Allocate data along edges in topological order. Each step produces
	// `dataPerStep` objects (at least one per outgoing edge) and each INPUT
	// edge carries `userInput` fresh objects.
	next := 0
	fresh := func() string { next++; return "d" + strconv.Itoa(next) }
	for _, inst := range order {
		if inst == spec.Output {
			continue
		}
		succs := unrolled.Successors(inst)
		if inst == spec.Input {
			for _, sc := range succs {
				count := sample(rng, c.UserInput)
				data := make([]string, count)
				for i := range data {
					data[i] = fresh()
				}
				if err := b.AddFlow(spec.Input, stepID[sc], data); err != nil {
					return nil, nil, err
				}
			}
			continue
		}
		id := stepID[inst]
		if len(succs) == 0 {
			continue
		}
		count := sample(rng, c.DataPerStep)
		if count < len(succs) {
			count = len(succs)
		}
		produced := make([]string, count)
		for i := range produced {
			produced[i] = fresh()
		}
		// Round-robin the products over the outgoing edges so every edge
		// carries at least one object.
		perEdge := make([][]string, len(succs))
		for i, d := range produced {
			e := i % len(succs)
			perEdge[e] = append(perEdge[e], d)
		}
		for i, sc := range succs {
			target := stepID[sc]
			if sc == spec.Output {
				target = spec.Output
			}
			if err := b.AddFlow(id, target, perEdge[i]); err != nil {
				return nil, nil, err
			}
		}
	}
	// The log is the run's: ToLog walks the index's topological order, which
	// is the order the step ids were assigned in (both are Kahn with a FIFO
	// queue, ties in ascending order), and lists each step's inputs and
	// products in natural order, as a workflow system logging this run would.
	r, err := b.Build()
	if err == nil {
		err = r.Validate()
	}
	if err != nil {
		return nil, nil, err
	}
	events, err := r.ToLog()
	return r, events, err
}

// loopsOf splits the graph of s into its acyclic skeleton (BackEdges
// guarantees it is) and its back edges, and finds the loop each closes.
func loopsOf(s *spec.Spec) (*graph.Graph, []graph.Edge, []*loop, error) {
	backEdges := s.Graph().BackEdges()
	skeleton := s.Graph().Clone()
	for _, e := range backEdges {
		skeleton.RemoveEdge(e.From, e.To)
	}
	loops, err := identifyLoops(skeleton, backEdges)
	return skeleton, backEdges, loops, err
}

// identifyLoops maps each back edge to its body: the skeleton nodes on
// paths head -> tail, plus head and tail themselves. Overlapping bodies are
// rejected.
func identifyLoops(skeleton *graph.Graph, backEdges []graph.Edge) ([]*loop, error) {
	var loops []*loop
	owned := make(map[string]int) // module -> loop index
	for _, be := range backEdges {
		l := &loop{head: be.To, tail: be.From, body: map[string]bool{be.To: true, be.From: true}}
		if be.To != be.From {
			fwd := skeleton.Reach(be.To)
			bwd := skeleton.ReachBack(be.From)
			for n := range fwd {
				if bwd[n] {
					l.body[n] = true
				}
			}
		}
		idx := len(loops)
		for m := range l.body {
			if prev, taken := owned[m]; taken && prev != idx {
				return nil, fmt.Errorf("run: module %q in two loops: %w", m, ErrUnsupportedLoops)
			}
			owned[m] = idx
		}
		loops = append(loops, l)
	}
	return loops, nil
}

// clampIterations shrinks loop iteration counts until the unrolled size
// fits maxSteps. base is the module count outside any extra iterations.
func clampIterations(loops []*loop, base, maxSteps int) {
	total := func() int {
		t := base
		for _, l := range loops {
			t += (l.iters - 1) * len(l.body)
		}
		return t
	}
	for total() > maxSteps {
		// Reduce the loop contributing the most instances.
		var worst *loop
		for _, l := range loops {
			if l.iters > 1 && (worst == nil || (l.iters-1)*len(l.body) > (worst.iters-1)*len(worst.body)) {
				worst = l
			}
		}
		if worst == nil {
			break
		}
		worst.iters--
	}
}

// unroll builds the acyclic instance graph. Instances are named
// "<module>#<iteration>", iteration 0 for modules outside every loop.
//
// Loop semantics match Figure 2 of the paper: iterations 1..k-1 execute the
// full body and continue through the back edge; the final iteration k
// executes only the body modules from which a loop exit is reachable over
// intra-body edges, and only the final iteration feeds the exit edges. In
// the phylogenomics loop M3 -> M4 -> M5 -> M3 with two iterations this
// yields exactly the paper's steps: M3, M4, M5, M3, M4 — the rectification
// step M5 does not run in the iteration that exits to M7.
func unroll(skeleton *graph.Graph, backEdges []graph.Edge, loops []*loop) (*graph.Graph, map[string]string, error) {
	loopOf := make(map[string]*loop)
	for _, l := range loops {
		for m := range l.body {
			loopOf[m] = l
		}
	}
	// finalBody per loop: modules that reach an exit node (a body module
	// with an edge out of the body, including to OUTPUT) over intra-body
	// skeleton edges.
	finalBody := make(map[*loop]map[string]bool, len(loops))
	for _, l := range loops {
		intra := skeleton.InducedSubgraph(l.body)
		fb := make(map[string]bool)
		for m := range l.body {
			isExit := false
			for _, sc := range skeleton.Successors(m) {
				if !l.body[sc] {
					isExit = true
					break
				}
			}
			if isExit {
				fb[m] = true
				for n := range intra.ReachBack(m) {
					fb[n] = true
				}
			}
		}
		if !fb[l.head] {
			return nil, nil, fmt.Errorf("run: loop head %q cannot reach a loop exit: %w", l.head, ErrUnsupportedLoops)
		}
		finalBody[l] = fb
	}

	inst := func(module string, iter int) string {
		return module + "#" + strconv.Itoa(iter)
	}
	exists := func(module string, iter int) bool {
		l := loopOf[module]
		if l == nil {
			return iter == 0
		}
		if iter < 1 || iter > l.iters {
			return false
		}
		return iter < l.iters || finalBody[l][module]
	}
	// firstInst: where external edges enter (iteration 1 when it exists,
	// else nowhere — the module never runs in a 1-iteration execution).
	firstInst := func(module string) (string, bool) {
		if l := loopOf[module]; l != nil {
			if !exists(module, 1) {
				return "", false
			}
			return inst(module, 1), true
		}
		return inst(module, 0), true
	}
	lastInst := func(module string) string {
		if l := loopOf[module]; l != nil {
			return inst(module, l.iters) // exit nodes are always in finalBody
		}
		return inst(module, 0)
	}

	u := graph.New()
	modules := make(map[string]string)
	u.AddNode(spec.Input)
	u.AddNode(spec.Output)
	for _, m := range skeleton.Nodes() {
		if m == spec.Input || m == spec.Output {
			continue
		}
		if l := loopOf[m]; l != nil {
			for i := 1; i <= l.iters; i++ {
				if exists(m, i) {
					u.AddNode(inst(m, i))
					modules[inst(m, i)] = m
				}
			}
		} else {
			u.AddNode(inst(m, 0))
			modules[inst(m, 0)] = m
		}
	}
	skeleton.EachEdge(func(from, to string) {
		switch {
		case from == spec.Input && to == spec.Output:
			u.AddEdge(from, to)
		case from == spec.Input:
			if fi, ok := firstInst(to); ok {
				u.AddEdge(spec.Input, fi)
			}
		case to == spec.Output:
			u.AddEdge(lastInst(from), spec.Output)
		default:
			lf, lt := loopOf[from], loopOf[to]
			switch {
			case lf != nil && lf == lt:
				// Intra-body edge: replicate wherever both ends exist.
				for i := 1; i <= lf.iters; i++ {
					if exists(from, i) && exists(to, i) {
						u.AddEdge(inst(from, i), inst(to, i))
					}
				}
			default:
				// Leaving a body uses the last iteration; entering one uses
				// the first. Outside-outside uses iteration 0 on both ends.
				if fi, ok := firstInst(to); ok {
					u.AddEdge(lastInst(from), fi)
				}
			}
		}
	})
	// Back edges chain consecutive iterations: tail#i -> head#(i+1).
	for _, be := range backEdges {
		l := loopOf[be.To]
		if l == nil {
			return nil, nil, fmt.Errorf("run: back edge %v without loop: %w", be, ErrUnsupportedLoops)
		}
		for i := 1; i < l.iters; i++ {
			if exists(be.From, i) && exists(be.To, i+1) {
				u.AddEdge(inst(be.From, i), inst(be.To, i+1))
			}
		}
	}
	return u, modules, nil
}

// SizeEstimate predicts the unrolled step count of s under the given
// iteration count per loop, without executing. Used by the workload
// generator to hit Table II's size targets.
func SizeEstimate(s *spec.Spec, itersPerLoop int) int {
	_, _, loops, err := loopsOf(s)
	if err != nil {
		return s.NumModules()
	}
	total := s.NumModules()
	for _, l := range loops {
		total += (itersPerLoop - 1) * len(l.body)
	}
	return total
}
