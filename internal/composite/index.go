package composite

import (
	"slices"
	"sort"

	"repro/internal/run"
	"repro/internal/spec"
)

// Projector is the integer-indexed face of a Mapping: the per-(run, view)
// arrays the projection intersects with a bitset-backed UAdmin
// closure. Everything is precomputed once per mapping — step → execution
// ordinal, data → producer-execution ordinal, and each execution's input /
// output data as interned ids in CSR layout — so projecting a closure is
// pure int32 arithmetic until the final Result is materialized.
//
// Execution ordinals are positions in the mapping's topological order, so
// walking ordinals ascending visits executions exactly as Executions()
// returns them. Provenance edges are ordered by the *string* order of their
// endpoint ids, which differs (S10 < S2, and INPUT sorts among them), so the
// projector also ranks every execution id together with spec.Input once:
// sorting edges is then integer work, and a name is read only on emission.
type Projector struct {
	ix    *run.Index
	execs []*Execution // topological order; ordinal = slice position

	stepExec []int32 // interned step -> execution ordinal
	prodExec []int32 // interned data -> producer execution ordinal, -1 external

	inOff, inData   []int32 // ordinal -> interned input data (CSR, ascending)
	outOff, outData []int32 // ordinal -> interned output data (CSR, ascending)

	// Edge endpoints: ordinal NumExecutions() stands for spec.Input.
	rankOf []int32 // endpoint ordinal -> rank of its id in string order
	atRank []int32 // inverse of rankOf
}

// Projector returns the mapping's integer-indexed projector, building it
// on first use (concurrent first calls build once). The projector is
// immutable and safe to share.
func (m *Mapping) Projector() *Projector {
	m.projOnce.Do(func() { m.proj = buildProjector(m) })
	return m.proj
}

func buildProjector(m *Mapping) *Projector {
	ix := m.r.Index()
	p := &Projector{
		ix:    ix,
		execs: m.Executions(),
	}
	p.stepExec = make([]int32, ix.NumSteps())
	for ord, e := range p.execs {
		for _, s := range e.Steps {
			id, _ := ix.StepID(s)
			p.stepExec[id] = int32(ord)
		}
	}
	p.prodExec = make([]int32, ix.NumData())
	for d := range p.prodExec {
		if s := ix.Producer(int32(d)); s >= 0 {
			p.prodExec[d] = p.stepExec[s]
		} else {
			p.prodExec[d] = -1
		}
	}
	p.inOff = make([]int32, len(p.execs)+1)
	p.outOff = make([]int32, len(p.execs)+1)
	for ord, e := range p.execs {
		for _, d := range e.Inputs {
			id, _ := ix.DataID(d)
			p.inData = append(p.inData, id)
		}
		// Ascending is what lets the edge sort skip the data id: enforce it
		// here instead of trusting two natural-order sorts to agree.
		slices.Sort(p.inData[p.inOff[ord]:])
		p.inOff[ord+1] = int32(len(p.inData))
		for _, d := range e.Outputs {
			id, _ := ix.DataID(d)
			p.outData = append(p.outData, id)
		}
		p.outOff[ord+1] = int32(len(p.outData))
	}
	p.atRank = make([]int32, len(p.execs)+1)
	for i := range p.atRank {
		p.atRank[i] = int32(i)
	}
	sort.SliceStable(p.atRank, func(i, j int) bool {
		return p.EndpointID(p.atRank[i]) < p.EndpointID(p.atRank[j])
	})
	p.rankOf = make([]int32, len(p.atRank))
	for rank, ord := range p.atRank {
		p.rankOf[ord] = int32(rank)
	}
	return p
}

// Index returns the run index the projector's interned ids refer to. A
// closure projects through this projector only when it carries the same
// index (pointer identity).
func (p *Projector) Index() *run.Index { return p.ix }

// NumExecutions returns the number of composite executions.
func (p *Projector) NumExecutions() int { return len(p.execs) }

// Execution returns the execution at a topological ordinal.
func (p *Projector) Execution(ord int32) *Execution { return p.execs[ord] }

// InputEndpoint is the edge-endpoint ordinal of spec.Input: one past the
// last execution ordinal.
func (p *Projector) InputEndpoint() int32 { return int32(len(p.execs)) }

// EndpointID names an edge endpoint: an execution id, or spec.Input.
func (p *Projector) EndpointID(ord int32) string {
	if int(ord) == len(p.execs) {
		return spec.Input
	}
	return p.execs[ord].ID
}

// EndpointRank returns the position of an endpoint's id among all endpoint
// ids in string order — the order provenance edges are reported in.
func (p *Projector) EndpointRank(ord int32) int32 { return p.rankOf[ord] }

// EndpointAtRank is the inverse of EndpointRank.
func (p *Projector) EndpointAtRank(rank int32) int32 { return p.atRank[rank] }

// ExecOfStep returns the execution ordinal containing an interned step.
func (p *Projector) ExecOfStep(s int32) int32 { return p.stepExec[s] }

// ProducerExec returns the execution ordinal that produced an interned
// data id, or -1 when the data is external (user/workflow input).
func (p *Projector) ProducerExec(d int32) int32 { return p.prodExec[d] }

// InputsOf returns an execution's interned input data, ascending (= natural
// order). The slice aliases the projector; callers must not mutate it.
func (p *Projector) InputsOf(ord int32) []int32 { return p.inData[p.inOff[ord]:p.inOff[ord+1]] }

// OutputsOf returns an execution's interned output data, ascending. The
// slice aliases the projector; callers must not mutate it.
func (p *Projector) OutputsOf(ord int32) []int32 { return p.outData[p.outOff[ord]:p.outOff[ord+1]] }
