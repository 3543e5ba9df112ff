package run

import (
	"errors"
	"fmt"

	"repro/internal/bitset"
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
// index (Index) holds, as built by a Builder or decoded — or aliased — from
// a v3 snapshot block. The int32 CSR slices, the flows' data and the
// finals bitset words may alias a read-only memory mapping; ReconstructArena
// adopts them without copying, which is what makes opening a v3 snapshot
// O(directory), not O(warehouse).
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
// invariants above it assembles the compact index directly over the slices,
// without copying. It is the one construction path: the v3 snapshot loader
// calls it on slices that alias the mapping, so first touch of a mapped run
// costs the checks and nothing else, and Builder.Build calls it on the
// tables it sorted.
func ReconstructArena(id, specName string, t ArenaTables) (*Run, error) {
	nSteps, nData := len(t.StepIDs), len(t.DataNames)
	if len(t.StepModules) != nSteps {
		return nil, fmt.Errorf("%w: %d step ids but %d modules", ErrBadArena, nSteps, len(t.StepModules))
	}
	var prev natKey // the order checks split each name once
	for i, sid := range t.StepIDs {
		if err := checkStep(Step{ID: sid, Module: t.StepModules[i]}); err != nil {
			return nil, err
		}
		key := natKeyOf(sid)
		if i > 0 && prev.compare(key) >= 0 {
			return nil, fmt.Errorf("%w: step ids out of natural order at %d", ErrBadArena, i)
		}
		prev = key
	}
	for i, d := range t.DataNames {
		if d == "" {
			return nil, fmt.Errorf("%w: empty data id at %d", ErrBadArena, i)
		}
		key := natKeyOf(d)
		if i > 0 && prev.compare(key) >= 0 {
			return nil, fmt.Errorf("%w: data ids out of natural order at %d", ErrBadArena, i)
		}
		prev = key
	}
	if len(t.Producer) != nData {
		return nil, fmt.Errorf("%w: producer column has %d entries for %d data", ErrBadArena, len(t.Producer), nData)
	}
	for d, p := range t.Producer {
		if p < -1 || int(p) >= nSteps {
			return nil, fmt.Errorf("%w: producer %d of data %d out of range", ErrBadArena, p, d)
		}
	}
	// Each check stays inside the slices it checks, so all run; the first
	// failure is reported.
	for _, err := range []error{
		checkCSR("inputs", t.InOff, t.InData, nSteps, nData),
		checkCSR("outputs", t.OutOff, t.OutData, nSteps, nData),
		checkCSR("consumers", t.ConOff, t.ConStep, nData, nSteps),
		checkFinals(t.Finals, nData),
		checkFlows(t),
	} {
		if err != nil {
			return nil, err
		}
	}
	for di := range t.Meta {
		if di < 0 || int(di) >= nData {
			return nil, fmt.Errorf("%w: meta data index %d out of range", ErrBadFlow, di)
		}
		if t.Producer[di] >= 0 {
			return nil, fmt.Errorf("%w: %q", ErrNotExternal, t.DataNames[di])
		}
	}

	r := &Run{id: id, specName: specName}
	r.ix = &Index{r: r, t: t}
	return r, nil
}

// checkFlows enforces the rules Builder.AddFlow checks on the interned
// flows and cross-checks their producer assignment against the column.
func checkFlows(t ArenaTables) error {
	nNodes, nData := NodeStep0+len(t.StepIDs), len(t.DataNames)
	name := func(code int32) string { return nodeName(code, t.StepIDs) }
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
