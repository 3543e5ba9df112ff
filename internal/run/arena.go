package run

import (
	"errors"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/spec"
)

// Node codes used by interned flow tables: INPUT and OUTPUT get fixed small
// codes so step k can be code k+2.
const (
	NodeInput  = 0
	NodeOutput = 1
	NodeStep0  = 2
)

// InternedFlow is one dataflow edge in interned form: endpoints are node
// codes (NodeInput, NodeOutput, or NodeStep0+k for the k-th step in natural
// order) and Data are indexes into the run's natural-order data table.
type InternedFlow struct {
	From, To int32
	Data     []int32
}

// ErrBadArena reports inconsistent arena tables handed to ReconstructArena —
// a v3 snapshot whose checksum passed but whose integer tables violate the
// layout invariants (a crafted file, since random corruption fails the
// checksum first).
var ErrBadArena = errors.New("run: inconsistent arena tables")

// ArenaTables is a run in its zero-copy form: the exact slices the compact
// index (Index) holds internally, as decoded — or aliased — from a v3
// snapshot block. The int32 CSR slices, the flows' data and the finals bitset
// words may alias a read-only memory mapping; ReconstructArena adopts them
// without copying, which is what makes opening a v3 snapshot O(directory),
// not O(warehouse).
//
// Invariants (verified, since a corrupt-but-checksummed file could violate
// them and an aliased slice must never be indexed out of range):
//
//   - StepIDs/StepModules parallel, natural-order strictly increasing ids;
//     DataNames natural-order strictly increasing, non-empty.
//   - Producer[d] in [-1, len(StepIDs)); -1 marks external data.
//   - Each CSR offset slice has len(rows)+1 entries, starts at 0, is
//     non-decreasing, ends at len(values); every value is in range and every
//     row is strictly ascending (sorted, duplicate-free).
//   - Finals has exactly the words a len(DataNames) bitset needs and no bit
//     set at or above len(DataNames).
//   - Flows carry the same dataflow the CSR encodes: valid endpoints and
//     data indexes, strictly ascending by (From, To) as the snapshot writer
//     emits them (hence no duplicate edges), and a producer assignment
//     identical to Producer.
type ArenaTables struct {
	StepIDs     []string
	StepModules []string
	DataNames   []string

	Producer []int32

	InOff, InData   []int32
	OutOff, OutData []int32
	ConOff, ConStep []int32

	Finals bitset.Set

	Flows []InternedFlow
	Meta  map[int32]map[string]string
}

// ReconstructArena adopts arena tables as a run: after verifying the
// invariants above it assembles the compact index directly over the int32
// slices, without copying, and returns a run that answers the serving path
// (ID, SpecName, HasData, IsExternal, InputMeta, the counts, Index) from
// that index. It is the v3 snapshot loader's construction path, so first
// touch of a mapped run costs the checks and nothing else. The string
// relations behind Graph, DataOn, Steps, Producer, Consumers and the rest
// are built from the same tables the first time one of them is called.
func ReconstructArena(id, specName string, t ArenaTables) (*Run, error) {
	nSteps, nData := len(t.StepIDs), len(t.DataNames)
	if len(t.StepModules) != nSteps {
		return nil, fmt.Errorf("%w: %d step ids but %d modules", ErrBadArena, nSteps, len(t.StepModules))
	}
	for i, sid := range t.StepIDs {
		if err := checkStep(Step{ID: sid, Module: t.StepModules[i]}); err != nil {
			return nil, err
		}
		if i > 0 && !lessNatural(t.StepIDs[i-1], sid) {
			return nil, fmt.Errorf("%w: step ids out of natural order at %d", ErrBadArena, i)
		}
	}
	for i, d := range t.DataNames {
		if d == "" {
			return nil, fmt.Errorf("%w: empty data id at %d", ErrBadArena, i)
		}
		if i > 0 && !lessNatural(t.DataNames[i-1], d) {
			return nil, fmt.Errorf("%w: data ids out of natural order at %d", ErrBadArena, i)
		}
	}
	if len(t.Producer) != nData {
		return nil, fmt.Errorf("%w: producer column has %d entries for %d data", ErrBadArena, len(t.Producer), nData)
	}
	for d, p := range t.Producer {
		if p < -1 || int(p) >= nSteps {
			return nil, fmt.Errorf("%w: producer %d of data %d out of range", ErrBadArena, p, d)
		}
	}
	if err := checkCSR("inputs", t.InOff, t.InData, nSteps, nData); err != nil {
		return nil, err
	}
	if err := checkCSR("outputs", t.OutOff, t.OutData, nSteps, nData); err != nil {
		return nil, err
	}
	if err := checkCSR("consumers", t.ConOff, t.ConStep, nData, nSteps); err != nil {
		return nil, err
	}
	if err := checkFinals(t.Finals, nData); err != nil {
		return nil, err
	}
	if err := checkFlows(t); err != nil {
		return nil, err
	}

	r := &Run{id: id, specName: specName, snapFlows: t.Flows}
	r.snap = &Index{
		r:        r,
		stepName: t.StepIDs, stepModule: t.StepModules,
		dataName: t.DataNames,
		producer: t.Producer,
		inOff:    t.InOff, inData: t.InData,
		outOff: t.OutOff, outData: t.OutData,
		conOff: t.ConOff, conStep: t.ConStep,
		finals: t.Finals,
	}
	r.index = r.snap
	for di, kv := range t.Meta {
		if di < 0 || int(di) >= nData {
			return nil, fmt.Errorf("%w: meta data index %d out of range", ErrBadFlow, di)
		}
		if err := r.AnnotateInput(t.DataNames[di], kv); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// checkFlows enforces AddFlow's structural rules on the interned flows and
// cross-checks the producer assignment they imply against the stored column.
func checkFlows(t ArenaTables) error {
	nNodes, nData := NodeStep0+len(t.StepIDs), len(t.DataNames)
	name := func(code int32) string {
		switch code {
		case NodeInput:
			return spec.Input
		case NodeOutput:
			return spec.Output
		}
		return t.StepIDs[code-NodeStep0]
	}
	prod := make([]int32, nData) // producing node code per the flows
	for i := range prod {
		prod[i] = -1
	}
	// Order is reported after the per-flow rules: a forged flow usually
	// breaks one of those too, and that is the better diagnosis.
	ascending, last := true, int64(-1)
	for _, f := range t.Flows {
		if f.From < 0 || int(f.From) >= nNodes || f.To < 0 || int(f.To) >= nNodes {
			return fmt.Errorf("%w: node code out of range on %d -> %d", ErrBadFlow, f.From, f.To)
		}
		if f.From == NodeOutput || f.To == NodeInput {
			return fmt.Errorf("%w: direction %s -> %s", ErrBadFlow, name(f.From), name(f.To))
		}
		if f.From == f.To {
			return fmt.Errorf("%w: self flow on %s", ErrBadFlow, name(f.From))
		}
		if len(f.Data) == 0 {
			return fmt.Errorf("%w: edge %s -> %s carries no data", ErrBadFlow, name(f.From), name(f.To))
		}
		key := int64(f.From)<<32 | int64(f.To)
		ascending = ascending && key > last
		last = key
		for i, di := range f.Data {
			if di < 0 || int(di) >= nData {
				return fmt.Errorf("%w: data index %d out of range on %s -> %s", ErrBadFlow, di, name(f.From), name(f.To))
			}
			if i > 0 && f.Data[i-1] >= di {
				return fmt.Errorf("%w: flow data not ascending on %s -> %s", ErrBadArena, name(f.From), name(f.To))
			}
			if prev := prod[di]; prev < 0 {
				prod[di] = f.From
			} else if prev != f.From {
				return fmt.Errorf("%w: %q produced by %q and %q", ErrTwoProducers,
					t.DataNames[di], name(prev), name(f.From))
			}
		}
	}
	if !ascending {
		return fmt.Errorf("%w: flows not strictly ascending by (from, to): out of order or duplicate edge", ErrBadArena)
	}
	for di, p := range prod {
		if p < 0 {
			return fmt.Errorf("%w: data %q appears in no flow", ErrBadArena, t.DataNames[di])
		}
		got := p - NodeStep0
		if p == NodeInput {
			got = -1
		}
		if got != t.Producer[di] {
			return fmt.Errorf("%w: producer column disagrees with flows on %q", ErrBadArena, t.DataNames[di])
		}
	}
	return nil
}

// buildStrings derives an adopted run's string relations from its index and
// flows, all verified at adoption. Nodes and edges enter the graph in the
// order a snapshot lists them, so Graph().Edges() reads the same before and
// after a save.
func (r *Run) buildStrings() {
	ix := r.snap
	nSteps, nData := ix.NumSteps(), ix.NumData()
	r.steps = make(map[string]Step, nSteps)
	r.g = graph.New()
	r.g.AddNode(spec.Input)
	r.g.AddNode(spec.Output)
	names := make([]string, NodeStep0+nSteps)
	names[NodeInput], names[NodeOutput] = spec.Input, spec.Output
	for i, sid := range ix.stepName {
		r.steps[sid] = Step{ID: sid, Module: ix.stepModule[i]}
		r.g.AddNode(sid)
		names[NodeStep0+i] = sid
	}
	r.edgeData = make(map[[2]string][]string, len(r.snapFlows))
	for _, f := range r.snapFlows {
		ds := make([]string, len(f.Data))
		for i, di := range f.Data {
			ds[i] = ix.dataName[di]
		}
		r.edgeData[[2]string{names[f.From], names[f.To]}] = ds
		r.g.AddEdge(names[f.From], names[f.To])
	}
	r.producer = make(map[string]string, nData)
	r.consumers = make(map[string][]string, nData)
	for di, d := range ix.dataName {
		if p := ix.producer[di]; p >= 0 {
			r.producer[d] = ix.stepName[p]
		} else {
			r.producer[d] = "" // external
		}
		// Consumers are reported in string order; the CSR row is in id order.
		var cs []string
		for _, s := range ix.ConsumersOf(int32(di)) {
			cs = insertString(cs, ix.stepName[s])
		}
		if cs != nil {
			r.consumers[d] = cs
		}
	}
}

// checkCSR verifies one offset/value CSR pair: rows+1 offsets from 0 to
// len(vals), non-decreasing, values in [0, valRange), rows strictly
// ascending.
func checkCSR(what string, off, vals []int32, rows, valRange int) error {
	if len(off) != rows+1 {
		return fmt.Errorf("%w: %s CSR has %d offsets for %d rows", ErrBadArena, what, len(off), rows)
	}
	if rows >= 0 && (len(off) == 0 || off[0] != 0) {
		return fmt.Errorf("%w: %s CSR does not start at 0", ErrBadArena, what)
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("%w: %s CSR offsets decrease at row %d", ErrBadArena, what, i-1)
		}
	}
	if int(off[len(off)-1]) != len(vals) {
		return fmt.Errorf("%w: %s CSR covers %d of %d values", ErrBadArena, what, off[len(off)-1], len(vals))
	}
	for i := 0; i < rows; i++ {
		row := vals[off[i]:off[i+1]]
		for j, v := range row {
			if v < 0 || int(v) >= valRange {
				return fmt.Errorf("%w: %s CSR value %d out of range in row %d", ErrBadArena, what, v, i)
			}
			if j > 0 && row[j-1] >= v {
				return fmt.Errorf("%w: %s CSR row %d not strictly ascending", ErrBadArena, what, i)
			}
		}
	}
	return nil
}

// checkFinals verifies the finals bitset holds exactly the words an n-bit
// set needs and sets no bit at or above n (an out-of-range bit would make
// Each hand an invalid id to DataName).
func checkFinals(finals bitset.Set, n int) error {
	words := (n + 63) / 64
	if len(finals) != words {
		return fmt.Errorf("%w: finals bitset has %d words for %d data", ErrBadArena, len(finals), n)
	}
	if words > 0 {
		if rem := uint(n % 64); rem != 0 {
			if finals[words-1]>>rem != 0 {
				return fmt.Errorf("%w: finals bitset sets bits beyond %d data", ErrBadArena, n)
			}
		}
	}
	return nil
}
