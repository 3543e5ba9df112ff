package composite

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/core"
	"repro/internal/jsontok"
	"repro/internal/run"
	"repro/internal/spec"
)

// Projector is the integer-indexed face of a Mapping: the per-(run, view)
// arrays the projection intersects with a bitset-backed UAdmin
// closure. What the view adds is computed once per mapping — step →
// execution ordinal, and each execution's input / output data as interned
// ids in CSR layout — and what the run already has is read through it (a
// data object's producing execution is its producer step's), so projecting a
// closure is pure int32 arithmetic, and encoding the answer is copying
// tokens: the run's (run.Index.Tokens) for step and data names, the
// projector's own for what depends on the view, composite names and
// <composite>@<k> ids.
//
// Execution ordinals are positions in the mapping's topological order, so
// walking ordinals ascending visits executions exactly as Executions()
// returns them. Provenance edges are ordered by the *string* order of their
// endpoint ids, which differs (S10 < S2, and INPUT sorts among them), so the
// projector also ranks every execution id together with spec.Input once:
// sorting edges is then integer work.
//
// The Execution values, strings, are a view of all this for callers that ask
// for one (Execution, EndpointID and the Mapping accessors over them): they
// are built behind a sync.Once on first use, so a mapping that only ever
// serves deep, derived and batch answers never holds them. Everything else
// is immutable after buildProjector; both are safe for concurrent use.
type Projector struct {
	ix         *run.Index
	composites []string // the view's composite names, as execComp numbers them

	stepExec []int32 // interned step -> execution ordinal
	execComp []int32 // ordinal -> composite

	stepOff, members []int32 // ordinal -> interned member steps (CSR, ascending)
	inOff, inData    []int32 // ordinal -> interned input data (CSR, ascending)
	outOff, outData  []int32 // ordinal -> interned output data (CSR, ascending)

	compTok jsontok.Table // composite -> name token
	idTok   jsontok.Table // ordinal -> id token; absent for a single-step execution

	// Edge endpoints: ordinal NumExecutions() stands for spec.Input.
	rankOf []int32 // endpoint ordinal -> rank of its id in string order
	atRank []int32 // inverse of rankOf

	execOnce sync.Once
	execs    []Execution // topological order; ordinal = slice position
}

// executionBuilds counts the projectors whose Execution values were built.
var executionBuilds atomic.Int64

// ExecutionBuilds returns how many mappings have had their Execution values
// built in this process. It exists for tests that pin what does not trigger
// the build.
func ExecutionBuilds() int64 { return executionBuilds.Load() }

// buildProjector computes the composite executions of the indexed run under
// v. A composite execution is a weakly connected component of the step DAG
// restricted to one composite: a union-find over the steps joins the producer
// and each consumer of a data object that map to the same composite.
func buildProjector(ix *run.Index, v *core.UserView) (*Projector, error) {
	nSteps, nData := ix.NumSteps(), ix.NumData()
	order := ix.TopoOrder()
	if len(order) != nSteps {
		return nil, fmt.Errorf("composite: run %q: %w", ix.Run().ID(), run.ErrCyclicRun)
	}
	// Until the ordinals replace them, stepExec holds each step's composite,
	// as v.Composites() numbers them.
	p := &Projector{ix: ix, composites: v.Composites(), stepExec: make([]int32, nSteps)}
	comp := p.stepExec
	for s := range comp {
		c, ok := v.CompositeIndex(ix.StepModule(int32(s)))
		if !ok {
			return nil, fmt.Errorf("%w: module %q of step %q not in view",
				ErrViewMismatch, ix.StepModule(int32(s)), ix.StepName(int32(s)))
		}
		comp[s] = c
	}

	// parent links always point at a smaller id, so a component's root is
	// its smallest member, the step the execution order goes by.
	parent := make([]int32, nSteps)
	for s := range parent {
		parent[s] = int32(s)
	}
	find := func(s int32) int32 {
		for parent[s] != s {
			parent[s] = parent[parent[s]]
			s = parent[s]
		}
		return s
	}
	for d := int32(0); int(d) < nData; d++ {
		p := ix.Producer(d)
		if p < 0 {
			continue
		}
		for _, c := range ix.ConsumersOf(d) {
			if comp[c] != comp[p] {
				continue
			}
			if a, b := find(p), find(c); a < b {
				parent[b] = a
			} else {
				parent[a] = b
			}
		}
	}

	// Ordinals: components in the topological order of their roots. A
	// root's composite moves to execComp as its ordinal replaces it, and the
	// sweep below, ascending, finds that ordinal in place when it reaches
	// the members (find(s) <= s).
	nExecs := int32(0)
	for s, up := range parent {
		if up == int32(s) {
			nExecs++
		}
	}
	p.execComp = make([]int32, 0, nExecs)
	for _, s := range order {
		if parent[s] == s {
			p.execComp = append(p.execComp, comp[s])
			p.stepExec[s] = int32(len(p.execComp) - 1)
		}
	}
	for s := range p.stepExec {
		p.stepExec[s] = p.stepExec[find(int32(s))]
	}

	// The rows are laid out by counting (see rows), each pass by descending
	// id, so every row comes out ascending. A data object enters each
	// consuming execution other than its producer's once, however many
	// member steps read it; it leaves its producer's when it is final or
	// read elsewhere. parent is done with, and keeps the last data id that
	// entered each execution, +1.
	members, in, out := newRows(nExecs), newRows(nExecs), newRows(nExecs)
	entered := parent[:nExecs]
	for pass := 0; pass < 2; pass++ {
		clear(entered)
		if pass == 1 {
			members.layout()
			in.layout()
			out.layout()
		}
		for s := int32(nSteps) - 1; s >= 0; s-- {
			members.add(p.stepExec[s], s)
		}
		for d := int32(nData) - 1; d >= 0; d-- {
			pe := p.ProducerExec(d)
			leaves := ix.IsFinal(d)
			for _, c := range ix.ConsumersOf(d) {
				ce := p.stepExec[c]
				if ce == pe {
					continue
				}
				leaves = true
				if entered[ce] != d+1 {
					entered[ce] = d + 1
					in.add(ce, d)
				}
			}
			if pe >= 0 && leaves {
				out.add(pe, d)
			}
		}
	}
	p.stepOff, p.members = members.off, members.data
	p.inOff, p.inData = in.off, in.data
	p.outOff, p.outData = out.off, out.data

	// Ids: a single-step execution keeps its step id (and token); the others
	// are numbered per composite in execution order.
	p.compTok = jsontok.Of(len(p.composites), func(c int32) string { return p.composites[c] })
	p.idTok = jsontok.NewTable(int(nExecs))
	ids := make([]string, nExecs+1)
	ids[nExecs] = spec.Input
	ordinal := make([]int, len(p.composites))
	for e, c := range p.execComp {
		if steps := p.StepsOf(int32(e)); len(steps) == 1 {
			ids[e] = ix.StepName(steps[0])
			p.idTok.AppendAbsent()
		} else {
			ordinal[c]++
			ids[e] = multiStepID(p.composites[c], ordinal[c])
			p.idTok.Append(ids[e])
		}
	}

	p.atRank = make([]int32, nExecs+1)
	for i := range p.atRank {
		p.atRank[i] = int32(i)
	}
	slices.SortStableFunc(p.atRank, func(a, b int32) int {
		return strings.Compare(ids[a], ids[b])
	})
	p.rankOf = make([]int32, len(p.atRank))
	for rank, ord := range p.atRank {
		p.rankOf[ord] = int32(rank)
	}
	return p, nil
}

func multiStepID(composite string, k int) string {
	return composite + "@" + strconv.Itoa(k)
}

// buildExecutions spells the executions out as strings: all their string
// slices are cut from one backing array (capacity-limited, so an append
// cannot reach a neighbour).
func (p *Projector) buildExecutions() {
	executionBuilds.Add(1)
	ix, nSteps := p.ix, len(p.members)
	names := make([]string, 0, nSteps+len(p.inData)+len(p.outData))
	for _, s := range p.members {
		names = append(names, ix.StepName(s))
	}
	for _, d := range p.inData {
		names = append(names, ix.DataName(d))
	}
	for _, d := range p.outData {
		names = append(names, ix.DataName(d))
	}
	ins, outs := names[nSteps:], names[nSteps+len(p.inData):]
	ordinal := make([]int, len(p.composites))
	p.execs = make([]Execution, len(p.execComp))
	for e := range p.execs {
		c := p.execComp[e]
		x := &p.execs[e]
		x.Composite = p.composites[c]
		x.Steps = names[p.stepOff[e]:p.stepOff[e+1]:p.stepOff[e+1]]
		x.Inputs = ins[p.inOff[e]:p.inOff[e+1]:p.inOff[e+1]]
		x.Outputs = outs[p.outOff[e]:p.outOff[e+1]:p.outOff[e+1]]
		if len(x.Steps) == 1 {
			x.ID = x.Steps[0]
		} else {
			ordinal[c]++
			x.ID = multiStepID(x.Composite, ordinal[c])
		}
	}
}

// rows lays out (row, value) facts in CSR form by counting, so that nothing
// is allocated but the rows themselves. The same facts are added twice: the
// first pass counts each row's length, layout turns the counts into each
// row's end and allocates the values, and the second pass places each value
// from its row's end back, leaving the row in the reverse of the order its
// values were added, and off[r] at the row's start.
type rows struct {
	off, data []int32
	placing   bool
}

func newRows(nRows int32) rows { return rows{off: make([]int32, nRows+1)} }

func (r *rows) add(row, v int32) {
	if !r.placing {
		r.off[row]++
		return
	}
	r.off[row]--
	r.data[r.off[row]] = v
}

// layout ends the counting pass.
func (r *rows) layout() {
	n := len(r.off) - 1
	for i := 1; i < n; i++ {
		r.off[i] += r.off[i-1]
	}
	if n > 0 {
		r.off[n] = r.off[n-1]
	}
	r.data = make([]int32, r.off[n])
	r.placing = true
}

// leaves reports whether a step outside d's producing execution reads d.
func (p *Projector) leaves(d int32) bool {
	pe := p.ProducerExec(d)
	for _, s := range p.ix.ConsumersOf(d) {
		if p.stepExec[s] != pe {
			return true
		}
	}
	return false
}

// Bytes is what the projector holds for the view: its int32 tables and its
// token tables. The run index and the view's composite names are shared, and
// the Execution values, built only for callers that ask for strings, are not
// counted.
func (p *Projector) Bytes() int {
	ints := 0
	for _, t := range [][]int32{p.stepExec, p.execComp, p.stepOff, p.members, p.inOff, p.inData, p.outOff, p.outData, p.rankOf, p.atRank} {
		ints += cap(t)
	}
	return int(unsafe.Sizeof(*p)) + 4*ints + p.compTok.Bytes() + p.idTok.Bytes()
}

// Index returns the run index the projector's interned ids refer to. A
// closure projects through this projector only when it carries the same
// index (pointer identity).
func (p *Projector) Index() *run.Index { return p.ix }

// NumExecutions returns the number of composite executions.
func (p *Projector) NumExecutions() int { return len(p.execComp) }

// executions returns the Execution values, building them on first use.
func (p *Projector) executions() []Execution {
	p.execOnce.Do(p.buildExecutions)
	return p.execs
}

// Execution returns the execution at a topological ordinal.
func (p *Projector) Execution(ord int32) *Execution { return &p.executions()[ord] }

// InputEndpoint is the edge-endpoint ordinal of spec.Input: one past the
// last execution ordinal.
func (p *Projector) InputEndpoint() int32 { return int32(len(p.execComp)) }

// EndpointID names an edge endpoint: an execution id, or spec.Input.
func (p *Projector) EndpointID(ord int32) string {
	if ord == p.InputEndpoint() {
		return spec.Input
	}
	return p.Execution(ord).ID
}

// Ordinal returns the ordinal of the execution with the given id. Endpoints
// are ranked by id for the edge sort; the same ranking is the id -> ordinal
// dictionary.
func (p *Projector) Ordinal(id string) (int32, bool) {
	rank, ok := slices.BinarySearchFunc(p.atRank, id, func(ord int32, id string) int {
		return strings.Compare(p.EndpointID(ord), id)
	})
	if !ok || p.atRank[rank] == p.InputEndpoint() {
		return 0, false
	}
	return p.atRank[rank], true
}

// inputToken is spec.Input as edges spell it.
var inputToken = jsontok.AppendString(nil, spec.Input)

// EndpointToken is EndpointID as a JSON string token. The slice aliases a
// table; callers must not mutate it.
func (p *Projector) EndpointToken(ord int32) []byte {
	if ord == p.InputEndpoint() {
		return inputToken
	}
	if tok := p.idTok.At(ord); len(tok) > 0 {
		return tok
	}
	return p.ix.Tokens().Step.At(p.members[p.stepOff[ord]])
}

// CompositeToken is the name of an execution's composite module as a JSON
// string token. The slice aliases the projector; callers must not mutate it.
func (p *Projector) CompositeToken(ord int32) []byte { return p.compTok.At(p.execComp[ord]) }

// LongestEndpointToken bounds the length of every EndpointToken: the
// longest of the multi-step ids, the run's step tokens and spec.Input.
func (p *Projector) LongestEndpointToken() int {
	return max(p.idTok.Longest(), p.ix.Tokens().Step.Longest(), len(inputToken))
}

// LongestCompositeToken is the length of the longest CompositeToken.
func (p *Projector) LongestCompositeToken() int { return p.compTok.Longest() }

// RowLengths sums, over the executions at ords, the lengths of their step
// rows and of their input and output rows, read off the offsets.
func (p *Projector) RowLengths(ords []int32) (steps, data int) {
	stepOff, inOff, outOff := p.stepOff, p.inOff, p.outOff
	for _, e := range ords {
		steps += int(stepOff[e+1] - stepOff[e])
		data += int(inOff[e+1] - inOff[e] + outOff[e+1] - outOff[e])
	}
	return steps, data
}

// EndpointRank returns the position of an endpoint's id among all endpoint
// ids in string order — the order provenance edges are reported in.
func (p *Projector) EndpointRank(ord int32) int32 { return p.rankOf[ord] }

// EndpointAtRank is the inverse of EndpointRank.
func (p *Projector) EndpointAtRank(rank int32) int32 { return p.atRank[rank] }

// ExecOfStep returns the execution ordinal containing an interned step.
func (p *Projector) ExecOfStep(s int32) int32 { return p.stepExec[s] }

// ProducerExec returns the execution ordinal that produced an interned
// data id, or -1 when the data is external (user/workflow input): the
// execution of the run's producer step.
func (p *Projector) ProducerExec(d int32) int32 {
	if s := p.ix.Producer(d); s >= 0 {
		return p.stepExec[s]
	}
	return -1
}

// StepsOf returns an execution's interned member steps, ascending (= natural
// order). The slice aliases the projector; callers must not mutate it.
func (p *Projector) StepsOf(ord int32) []int32 { return p.members[p.stepOff[ord]:p.stepOff[ord+1]] }

// InputsOf returns an execution's interned input data, ascending (= natural
// order). The slice aliases the projector; callers must not mutate it.
func (p *Projector) InputsOf(ord int32) []int32 { return p.inData[p.inOff[ord]:p.inOff[ord+1]] }

// OutputsOf returns an execution's interned output data, ascending. The
// slice aliases the projector; callers must not mutate it.
func (p *Projector) OutputsOf(ord int32) []int32 { return p.outData[p.outOff[ord]:p.outOff[ord+1]] }
