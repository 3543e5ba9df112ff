package run

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/bitset"
)

// Node codes name the endpoints of a flow edge (EachFlow, and a v3
// snapshot's flow section): INPUT and OUTPUT get fixed small codes so step
// k can be code k+2.
const (
	NodeInput  = 0
	NodeOutput = 1
	NodeStep0  = 2
)

// ErrBadArena reports inconsistent arena tables handed to ReconstructArena —
// a v3 snapshot whose checksum passed but whose tables violate the layout
// invariants (a crafted file, since random corruption fails the checksum
// first).
var ErrBadArena = errors.New("run: inconsistent arena tables")

// ArenaTables is a run in its zero-copy form: the exact slices the compact
// index (Index) holds, as built by a Builder or aliased from a v3 snapshot
// block. Every table is pointer-free except Meta. The offset and CSR slices
// and the finals bitset words may alias a read-only memory mapping;
// ReconstructArena adopts them without copying, which is what makes opening
// a v3 snapshot O(directory), not O(warehouse). Names is one string, so
// names outlive the mapping. There is no flow table: EachFlow derives the
// flows from the rows.
//
// Invariants (verified, since a corrupt-but-checksummed file could violate
// them and an aliased slice must never be indexed out of range):
//
//   - StepOff, ModuleOff and DataOff tile Names in that order: each is
//     non-decreasing, starts where the one before ends (the first at 0), and
//     DataOff ends at len(Names). StepOff and ModuleOff have the same length.
//     Name i of a table is Names[off[i]:off[i+1]].
//   - Step ids are in strictly increasing natural order, non-empty, not
//     INPUT or OUTPUT, and their modules non-empty; data ids are in strictly
//     increasing natural order and non-empty.
//   - Producer[d] in [-1, steps); -1 marks external data.
//   - Each CSR offset slice has len(rows)+1 entries, starts at 0, is
//     non-decreasing, ends at len(values); every value is in range and every
//     row is strictly ascending (sorted, duplicate-free).
//   - Finals has exactly the words a data bitset needs and no bit set at or
//     above the data count.
//   - The rows agree: ConStep is the transpose of InData, OutData groups
//     exactly the producer column, no step reads its own output, and every
//     data object is read or final, so it lies on some flow.
type ArenaTables struct {
	Names                       string
	StepOff, ModuleOff, DataOff []uint32

	Producer []int32

	InOff, InData   []int32
	OutOff, OutData []int32
	ConOff, ConStep []int32

	Finals bitset.Set

	Meta map[int32]map[string]string
}

// name returns name i of the table off indexes.
func (t *ArenaTables) name(off []uint32, i int32) string { return t.Names[off[i]:off[i+1]] }

// ReconstructArena adopts arena tables as a run: after verifying the
// invariants above it assembles the compact index directly over the slices,
// without copying. It is the one construction path: the v3 snapshot loader
// calls it on slices that alias the mapping, so first touch of a mapped run
// costs the checks and one copy of the names, and Builder.Build calls it on
// the tables it sorted.
func ReconstructArena(id, specName string, t ArenaTables) (*Run, error) {
	if err := checkNames(&t); err != nil {
		return nil, err
	}
	ix := &Index{t: t}
	nSteps, nData := ix.NumSteps(), ix.NumData()
	for i := int32(0); i < int32(nSteps); i++ {
		if err := checkStep(Step{ID: ix.StepName(i), Module: ix.StepModule(i)}); err != nil {
			return nil, err
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
	// Each check stays inside the slices it checks, so all run; the first
	// failure is reported. The cross-checks index through the rows, so they
	// run only once every row is in range.
	for _, err := range []error{
		t.checkOrder("step", t.StepOff),
		t.checkOrder("data", t.DataOff),
		checkCSR("inputs", t.InOff, t.InData, nSteps, nData),
		checkCSR("outputs", t.OutOff, t.OutData, nSteps, nData),
		checkCSR("consumers", t.ConOff, t.ConStep, nData, nSteps),
		checkFinals(t.Finals, nData),
	} {
		if err != nil {
			return nil, err
		}
	}
	if err := ix.checkRowsAgree(); err != nil {
		return nil, err
	}
	for di := range t.Meta {
		if di < 0 || int(di) >= nData {
			return nil, fmt.Errorf("%w: meta data index %d out of range", ErrBadFlow, di)
		}
		if t.Producer[di] >= 0 {
			return nil, fmt.Errorf("%w: %q", ErrNotExternal, ix.DataName(di))
		}
	}

	r := &Run{id: id, specName: specName, ix: ix}
	ix.r = r
	return r, nil
}

// checkNames verifies that the three offset tables tile the name arena —
// steps, modules, data — so that every name slices in bounds.
func checkNames(t *ArenaTables) error {
	end := uint32(0)
	for _, off := range [][]uint32{t.StepOff, t.ModuleOff, t.DataOff} {
		if len(off) == 0 || off[0] != end || len(t.ModuleOff) != len(t.StepOff) {
			return fmt.Errorf("%w: name offsets do not tile the arena", ErrBadArena)
		}
		for i := 1; i < len(off); i++ {
			if off[i] < off[i-1] {
				return fmt.Errorf("%w: name offsets decrease at %d", ErrBadArena, i-1)
			}
		}
		end = off[len(off)-1]
	}
	if int(end) != len(t.Names) {
		return fmt.Errorf("%w: name offsets cover %d of %d arena bytes", ErrBadArena, end, len(t.Names))
	}
	return nil
}

// checkOrder verifies that the names in the table off indexes are non-empty
// and strictly increasing in natural order, splitting each name once.
func (t *ArenaTables) checkOrder(what string, off []uint32) error {
	var prev natKey
	for i := int32(0); i+1 < int32(len(off)); i++ {
		key := natKeyOf(t.name(off, i))
		if key.name == "" {
			return fmt.Errorf("%w: empty %s id at %d", ErrBadArena, what, i)
		}
		if i > 0 && prev.compare(key) >= 0 {
			return fmt.Errorf("%w: %s ids out of natural order at %d", ErrBadArena, what, i)
		}
		prev = key
	}
	return nil
}

// checkRowsAgree cross-checks the rows every flow is derived from, without
// allocating: ConStep is the transpose of InData (every consumer pair is an
// input pair, and there are as many of each; rows are duplicate-free), the
// outputs rows hold exactly the data whose producer they name, no step reads
// its own output, and every data object is read or final.
func (ix *Index) checkRowsAgree() error {
	t := &ix.t
	if len(t.InData) != len(t.ConStep) {
		return fmt.Errorf("%w: %d input pairs but %d consumer pairs", ErrBadArena, len(t.InData), len(t.ConStep))
	}
	for d := int32(0); d < int32(ix.NumData()); d++ {
		cons := ix.ConsumersOf(d)
		if len(cons) == 0 && !ix.IsFinal(d) {
			return fmt.Errorf("%w: data %q appears in no flow", ErrBadArena, ix.DataName(d))
		}
		for _, s := range cons {
			if s == t.Producer[d] {
				return fmt.Errorf("%w: self flow on %s", ErrBadFlow, ix.StepName(s))
			}
			if _, ok := slices.BinarySearch(ix.InputsOf(s), d); !ok {
				return fmt.Errorf("%w: %s consumes %q but does not list it as input", ErrBadArena, ix.StepName(s), ix.DataName(d))
			}
		}
	}
	for s := int32(0); s < int32(ix.NumSteps()); s++ {
		for _, d := range ix.OutputsOf(s) {
			switch p := t.Producer[d]; {
			case p == s:
			case p >= 0:
				return fmt.Errorf("%w: %q produced by %q and %q", ErrTwoProducers, ix.DataName(d), ix.StepName(p), ix.StepName(s))
			default:
				return fmt.Errorf("%w: producer column disagrees with outputs on %q", ErrBadArena, ix.DataName(d))
			}
		}
	}
	// Every outputs entry names its data's producer, so no data is listed
	// twice; as many entries as produced data leaves none unlisted.
	produced := 0
	for _, p := range t.Producer {
		if p >= 0 {
			produced++
		}
	}
	if produced != len(t.OutData) {
		return fmt.Errorf("%w: producer column names %d produced data, outputs rows %d", ErrBadArena, produced, len(t.OutData))
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
