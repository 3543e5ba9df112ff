package run

import (
	"errors"
	"fmt"

	"repro/internal/bitset"
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
// snapshot block. The int32 CSR slices and the finals bitset words may alias
// a read-only memory mapping; ReconstructArena adopts them without copying,
// which is what makes opening a v3 snapshot O(directory), not O(warehouse).
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
//     data indexes, no duplicate edges, and a producer assignment identical
//     to Producer.
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

// ReconstructArena builds a fully functional Run — string-world relations
// plus a pre-built compact index — from arena tables, adopting the int32
// slices without copying. It is the v3 snapshot loader's construction path:
// it trusts the stored CSR adjacency after verifying the invariants above,
// so materializing a run costs the string table and relation maps only.
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

	// Rebuild the string-world relations from the flows, enforcing the same
	// structural rules as AddFlow, and cross-check the
	// producer assignment the flows imply against the stored column.
	r := NewRun(id, specName)
	r.steps = make(map[string]Step, nSteps)
	r.edgeData = make(map[[2]string][]string, len(t.Flows))
	r.producer = make(map[string]string, nData)
	r.consumers = make(map[string][]string, nData)
	names := make([]string, NodeStep0+nSteps)
	names[NodeInput] = spec.Input
	names[NodeOutput] = spec.Output
	for i, sid := range t.StepIDs {
		st := Step{ID: sid, Module: t.StepModules[i]}
		r.steps[sid] = st
		r.g.AddNode(sid)
		names[NodeStep0+i] = sid
	}
	prod := make([]int32, nData)
	for i := range prod {
		prod[i] = -1
	}
	type edgeKey struct{ f, t int32 }
	seenEdge := make(map[edgeKey]bool, len(t.Flows))
	for _, f := range t.Flows {
		if f.From < 0 || int(f.From) >= len(names) || f.To < 0 || int(f.To) >= len(names) {
			return nil, fmt.Errorf("%w: node code out of range on %d -> %d", ErrBadFlow, f.From, f.To)
		}
		from, to := names[f.From], names[f.To]
		if f.From == NodeOutput || f.To == NodeInput {
			return nil, fmt.Errorf("%w: direction %s -> %s", ErrBadFlow, from, to)
		}
		if f.From == f.To {
			return nil, fmt.Errorf("%w: self flow on %s", ErrBadFlow, from)
		}
		if len(f.Data) == 0 {
			return nil, fmt.Errorf("%w: edge %s -> %s carries no data", ErrBadFlow, from, to)
		}
		if seenEdge[edgeKey{f.From, f.To}] {
			return nil, fmt.Errorf("%w: duplicate edge %s -> %s", ErrBadArena, from, to)
		}
		seenEdge[edgeKey{f.From, f.To}] = true
		ds := make([]string, len(f.Data))
		for i, di := range f.Data {
			if di < 0 || int(di) >= nData {
				return nil, fmt.Errorf("%w: data index %d out of range on %s -> %s", ErrBadFlow, di, from, to)
			}
			if i > 0 && f.Data[i-1] >= di {
				return nil, fmt.Errorf("%w: flow data not ascending on %s -> %s", ErrBadArena, from, to)
			}
			if prev := prod[di]; prev >= 0 {
				if prev != f.From {
					return nil, fmt.Errorf("%w: %q produced by %q and %q", ErrTwoProducers,
						t.DataNames[di], producerName(names, prev), producerName(names, f.From))
				}
			} else {
				prod[di] = f.From
			}
			ds[i] = t.DataNames[di]
		}
		r.edgeData[[2]string{from, to}] = ds
		r.g.AddEdge(from, to)
	}
	for di, p := range prod {
		if p < 0 {
			return nil, fmt.Errorf("%w: data %q appears in no flow", ErrBadArena, t.DataNames[di])
		}
		want := t.Producer[di]
		got := p - NodeStep0
		if p == NodeInput {
			got = -1
		}
		if got != want {
			return nil, fmt.Errorf("%w: producer column disagrees with flows on %q", ErrBadArena, t.DataNames[di])
		}
		r.producer[t.DataNames[di]] = producerName(names, p)
	}

	// Assemble the index directly over the (possibly mapping-backed) slices.
	ix := &Index{
		r:        r,
		stepName: t.StepIDs,
		dataName: t.DataNames,
		producer: t.Producer,
		inOff:    t.InOff, inData: t.InData,
		outOff: t.OutOff, outData: t.OutData,
		conOff: t.ConOff, conStep: t.ConStep,
		finals: t.Finals,
	}
	ix.stepID = make(map[string]int32, nSteps)
	for i, s := range t.StepIDs {
		ix.stepID[s] = int32(i)
	}
	ix.dataID = make(map[string]int32, nData)
	for i, d := range t.DataNames {
		ix.dataID[d] = int32(i)
	}
	r.index = ix

	// Consumer lists (lexicographically sorted, the Consumers contract) come
	// from the validated CSR rows.
	for di := 0; di < nData; di++ {
		row := ix.ConsumersOf(int32(di))
		if len(row) == 0 {
			continue
		}
		var cs []string
		for _, s := range row {
			cs = insertString(cs, t.StepIDs[s])
		}
		r.consumers[t.DataNames[di]] = cs
	}

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

func producerName(names []string, code int32) string {
	if code == NodeInput {
		return "" // external
	}
	return names[code]
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
