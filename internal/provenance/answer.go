package provenance

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/bitset"
	"repro/internal/composite"
	"repro/internal/run"
	"repro/internal/warehouse"
)

// Answer is the answer to a provenance query in integers: what a projection
// computes, and what the server encodes without reading a name (every
// ordinal and id below has its JSON token in the projector or in its run's
// index). Result spells the same answer out in strings. The three lists are
// pointer-free; an Answer is immutable once returned.
type Answer struct {
	RunID string
	Root  string
	// External and Metadata are as in Result.
	External bool
	Metadata map[string]string
	// Projector is the (run, view) mapping the integers below refer to.
	Projector *composite.Projector
	// Executions are the visible executions' ordinals, ascending: the
	// mapping's topological order.
	Executions []int32
	// Data are the visible data objects' interned ids, ascending: natural
	// order.
	Data []int32
	// Edges are the displayed graph's edges, ordered by the string order of
	// the producer's id, then of the consumer's. EdgeData holds the data
	// every edge passes, edge after edge, each edge's ascending (DataOf).
	Edges    []AnswerEdge
	EdgeData []int32
}

// AnswerEdge is one edge of an Answer. From is an edge endpoint ordinal (an
// execution's, or Projector.InputEndpoint()), To an execution ordinal, and
// the edge's data ends at EdgeData[End], where the next edge's begins.
type AnswerEdge struct {
	From, To, End int32
}

// DataOf returns the interned ids of the data edge i passes, ascending. The
// slice aliases the answer; callers must not mutate it.
func (a *Answer) DataOf(i int) []int32 {
	start := int32(0)
	if i > 0 {
		start = a.Edges[i-1].End
	}
	return a.EdgeData[start:a.Edges[i].End]
}

// Result spells the answer out in strings. This is the one place a Result is
// made, and it builds the mapping's Execution values if nothing has yet. A
// nil Answer (a failed query's) gives a nil Result.
func (a *Answer) Result() *Result {
	if a == nil {
		return nil
	}
	px, ix := a.Projector, a.Projector.Index()
	res := &Result{RunID: a.RunID, Root: a.Root, External: a.External, Metadata: a.Metadata}
	// With nothing visible the list stays nil, as append would leave it.
	if len(a.Executions) > 0 {
		res.Executions = make([]*composite.Execution, len(a.Executions))
		for i, ord := range a.Executions {
			res.Executions[i] = px.Execution(ord)
		}
	}
	res.Data = make([]string, len(a.Data))
	for i, d := range a.Data {
		res.Data[i] = ix.DataName(d)
	}
	if len(a.Edges) == 0 {
		return res
	}
	// The edges' data lists share one backing array.
	names := make([]string, len(a.EdgeData))
	for i, d := range a.EdgeData {
		names[i] = ix.DataName(d)
	}
	res.Edges = make([]Edge, len(a.Edges))
	start := int32(0)
	for i, e := range a.Edges {
		res.Edges[i] = Edge{From: px.EndpointID(e.From), To: px.EndpointID(e.To), Data: names[start:e.End:e.End]}
		start = e.End
	}
	return res
}

// setLists lists the visible executions and data, ascending, and leaves room
// for edgeData ids of EdgeData, all in one allocation.
func (a *Answer) setLists(visible, outData bitset.Set, edgeData int) {
	n, m := visible.Count(), outData.Count()
	ids := visible.Members(make([]int32, 0, n+m+edgeData))
	ids = outData.Members(ids)
	a.Executions, a.Data, a.EdgeData = ids[:n:n], ids[n:n+m:n+m], ids[n+m:n+m+edgeData]
}

// resultOf is Result over a query's (answer, error) pair.
func resultOf(a *Answer, err error) (*Result, error) { return a.Result(), err }

// ErrIndexMismatch reports a closure and a view mapping interned over
// different run indexes. A query takes both from the one run instance it
// resolved — the closure cache and the mapping memo are keyed on it — so
// this is an invariant check: seeing it means a bug.
var ErrIndexMismatch = errors.New("provenance: closure and view mapping are over different run indexes")

// projectorFor returns the mapping's projector and the closure's step set
// after checking that both speak the same interned ids.
func projectorFor(m *composite.Mapping, c *warehouse.Closure) (*composite.Projector, bitset.Set, error) {
	px := m.Projector()
	ix, stepBits := c.Steps()
	if px.Index() != ix {
		return nil, nil, fmt.Errorf("%w: run %q, root %q: closure index %p, mapping index %p",
			ErrIndexMismatch, m.Run().ID(), c.Root, ix, px.Index())
	}
	return px, stepBits, nil
}

// newAnswer starts the answer for a query rooted at data object root, and
// returns root's interned id (negative when the run has no such data).
func newAnswer(px *composite.Projector, root string) (*Answer, int32) {
	ix := px.Index()
	r := ix.Run()
	a := &Answer{RunID: r.ID(), Root: root, Projector: px}
	rootID, ok := ix.DataID(root)
	if !ok {
		return a, -1
	}
	if a.External = ix.Producer(rootID) < 0; a.External {
		a.Metadata = r.InputMeta(root)
	}
	return a, rootID
}

// project restricts a UAdmin closure to what a view shows: the composite
// executions that intersect the closure, the data crossing their
// boundaries, and the edges between them.
func project(m *composite.Mapping, c *warehouse.Closure) (*Answer, error) {
	px, stepBits, err := projectorFor(m, c)
	if err != nil {
		return nil, err
	}
	a, rootID := newAnswer(px, c.Root)
	projectVisible(a, rootID, visibleExecutions(px, stepBits), stepBits, nil)
	return a, nil
}

// visibleExecutions returns the executions that contain a closure step, as
// a bitset over topological ordinals.
func visibleExecutions(px *composite.Projector, stepBits bitset.Set) bitset.Set {
	visible := bitset.New(px.NumExecutions())
	stepBits.Each(func(s int32) { visible.Add(px.ExecOfStep(s)) })
	return visible
}

// projectVisible is the backward projection once the visible executions are
// known (the direct strategy finds them by its own traversal). rootID seeds
// the visible data (negative: no root data object, as in
// ExecutionProvenance). The inputs of a visible execution it keeps are the
// closure's data: the root or one of roots, or read by a closure step
// (steps), as warehouse.Closure.HasDataID decides for a single root. The
// root counts even when no closure step reads it, which a cycle in the
// view's composite graph can bring about. A visible
// single-step execution's step is a closure step, so all of its inputs are,
// and with steps nil every input of a visible execution is. Data comes out
// naturally sorted for free because interned ids are natural ranks.
//
// Edges are ordered by (From, To) in the string order of the ids, with
// natural-order data. No string is compared, or read, to get there:
// consumers are walked in the string rank of their ids (composite.Projector
// ranks them once per mapping), an execution's inputs are ascending interned
// ids, so the facts are collected already ordered by (To, data), and one
// stable counting pass on the producer's rank finishes the order.
func projectVisible(a *Answer, rootID int32, visible, steps, roots bitset.Set) {
	px := a.Projector
	ix := px.Index()
	outData := bitset.New(ix.NumData())
	if rootID >= 0 {
		outData.Add(rootID)
	}
	sc := edgeScratchPool.Get().(*edgeScratch)
	defer sc.release()
	input := px.InputEndpoint()
	facts := sc.facts[:0]
	for rank := int32(0); rank <= input; rank++ {
		to := px.EndpointAtRank(rank)
		if to == input || !visible.Has(to) {
			continue
		}
		all := steps == nil || len(px.StepsOf(to)) == 1
		for _, d := range px.InputsOf(to) {
			if !all && d != rootID && !roots.Has(d) && !readBy(ix, steps, d) {
				continue // input irrelevant to this derivation
			}
			outData.Add(d)
			from := px.ProducerExec(d)
			if from < 0 {
				from = input
			} else if !visible.Has(from) {
				continue
			}
			facts = append(facts, edgeFact{from: px.EndpointRank(from), to: to, d: d})
		}
	}
	sc.facts = facts
	a.setLists(visible, outData, len(facts))
	if len(facts) == 0 {
		return
	}

	// next[r] is where the next fact whose producer has rank r goes.
	next := slices.Grow(sc.next[:0], int(input)+2)[:input+2]
	clear(next)
	for _, f := range facts {
		next[f.from+1]++
	}
	for r := int32(1); r <= input; r++ {
		next[r] += next[r-1]
	}
	sorted := slices.Grow(sc.sorted[:0], len(facts))[:len(facts)]
	for _, f := range facts {
		sorted[next[f.from]] = f
		next[f.from]++
	}
	sc.next, sc.sorted = next, sorted

	// One edge per (from, to) group, naming the producer, not its rank.
	groups := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i].from != sorted[i-1].from || sorted[i].to != sorted[i-1].to {
			groups++
		}
	}
	a.Edges = make([]AnswerEdge, 0, groups)
	for i, f := range sorted {
		a.EdgeData[i] = f.d
		if last := len(a.Edges) - 1; i > 0 && f.from == sorted[i-1].from && f.to == sorted[i-1].to {
			a.Edges[last].End++
		} else {
			a.Edges = append(a.Edges, AnswerEdge{From: px.EndpointAtRank(f.from), To: f.to, End: int32(i) + 1})
		}
	}
}

// readBy reports whether a step in steps reads data d.
func readBy(ix *run.Index, steps bitset.Set, d int32) bool {
	for _, s := range ix.ConsumersOf(d) {
		if steps.Has(s) {
			return true
		}
	}
	return false
}

// edgeFact is one "data d flows from -> to" fact of a projection, in
// integers: from is the producer endpoint's string rank (the sort key), to
// the consumer's execution ordinal, d the interned data id.
type edgeFact struct {
	from, to, d int32
}

// edgeScratch is the per-query working memory of the edge sort. It is
// pointer-free, pooled across queries, and never reachable from an Answer.
type edgeScratch struct {
	facts, sorted []edgeFact
	next          []int32
}

// maxPooledFacts is the largest fact list returned to the pool, the
// counterpart of the server's maxPooledBuf: several times the facts of the
// biggest answers the benchmark's corpora produce (~6,000), so that one
// outsized projection does not pin its scratch for the life of the process.
const maxPooledFacts = 1 << 15

var edgeScratchPool = sync.Pool{New: func() any { return new(edgeScratch) }}

// release returns the scratch to the pool unless it has grown past the cap.
func (sc *edgeScratch) release() {
	if max(cap(sc.facts), cap(sc.sorted), cap(sc.next)) <= maxPooledFacts {
		edgeScratchPool.Put(sc)
	}
}

// projectForward mirrors project for the derivation direction: visible
// executions intersecting the closure, and the closure data leaving each
// execution toward other visible executions (or toward the final output).
// A visible single-step execution's step is a closure step, so all of its
// outputs are closure data.
func projectForward(m *composite.Mapping, c *warehouse.Closure) (*Answer, error) {
	px, stepBits, err := projectorFor(m, c)
	if err != nil {
		return nil, err
	}
	ix := px.Index()
	a, rootID := newAnswer(px, c.Root)
	visible := visibleExecutions(px, stepBits)
	outData := bitset.New(ix.NumData())
	if rootID >= 0 {
		outData.Add(rootID)
	}
	visible.Each(func(ord int32) {
		all := len(px.StepsOf(ord)) == 1
		for _, d := range px.OutputsOf(ord) {
			if !all && !c.HasDataID(d) {
				continue
			}
			if ix.IsFinal(d) || consumedOutside(ix, px, visible, ord, d) {
				outData.Add(d)
			}
		}
	})
	a.setLists(visible, outData, 0)
	return a, nil
}

func consumedOutside(ix *run.Index, px *composite.Projector, visible bitset.Set, ord, d int32) bool {
	for _, s := range ix.ConsumersOf(d) {
		if e := px.ExecOfStep(s); e != ord && visible.Has(e) {
			return true
		}
	}
	return false
}
