package run

import (
	"slices"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/spec"
)

// dataIDsFromRaw maps arbitrary uint16s onto data ids.
func dataIDsFromRaw(raw []uint16) []string {
	out := make([]string, len(raw))
	for i, v := range raw {
		out[i] = "d" + itoa(int(v)%500)
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Property: mergeDataIDs is idempotent, deduplicating, order-insensitive,
// and its output is naturally sorted.
func TestQuickMergeDataIDs(t *testing.T) {
	f := func(rawA, rawB []uint16) bool {
		a, b := dataIDsFromRaw(rawA), dataIDsFromRaw(rawB)
		m1 := mergeDataIDs(a, b)
		m2 := mergeDataIDs(b, a)
		if len(m1) != len(m2) {
			return false
		}
		for i := range m1 {
			if m1[i] != m2[i] {
				return false
			}
		}
		// Sorted and deduplicated.
		for i := 1; i < len(m1); i++ {
			if !lessNatural(m1[i-1], m1[i]) {
				return false
			}
		}
		// Idempotent.
		m3 := mergeDataIDs(m1, m1)
		if len(m3) != len(m1) {
			return false
		}
		// Every input is present.
		set := make(map[string]bool, len(m1))
		for _, x := range m1 {
			set[x] = true
		}
		for _, x := range append(a, b...) {
			if !set[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// atoiSplitNatural and atoiLessNatural are the reference natural order: the
// rule as it was first written, with strconv.Atoi reading the trailing
// digits. splitNatural, natKey and lessNatural must order every pair of
// names as they do.
func atoiSplitNatural(s string) (string, int) {
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	if i == len(s) {
		return s, -1
	}
	n, err := strconv.Atoi(s[i:])
	if err != nil {
		return s, -1
	}
	return s[:i], n
}

func atoiLessNatural(a, b string) bool {
	pa, na := atoiSplitNatural(a)
	pb, nb := atoiSplitNatural(b)
	if pa != pb {
		return pa < pb
	}
	if na != nb {
		return na < nb
	}
	return a < b
}

// Property: lessNatural is the reference order on data ids, and a strict
// total order — irreflexive, antisymmetric, and trichotomous.
func TestQuickLessNaturalTotalOrder(t *testing.T) {
	f := func(x, y uint16) bool {
		a, b := "d"+itoa(int(x)%1000), "d"+itoa(int(y)%1000)
		lt, gt := lessNatural(a, b), lessNatural(b, a)
		if lt != atoiLessNatural(a, b) || gt != atoiLessNatural(b, a) {
			return false
		}
		if a == b {
			return !lt && !gt
		}
		return lt != gt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the keys naturalOrder sorts and searchNatural probes on order
// names exactly as the reference does: leading zeros, all-digit names and
// trailing numbers that overflow an int included.
func TestQuickNatKeyMatchesLessNatural(t *testing.T) {
	prefixes := []string{"", "d", "S", "d1x", "é", "d0", "d00"}
	f := func(pa, pb uint8, x, y uint16, bigA, bigB bool) bool {
		a := prefixes[int(pa)%len(prefixes)] + itoa(int(x)%50)
		b := prefixes[int(pb)%len(prefixes)] + itoa(int(y)%50)
		if bigA {
			a += "99999999999999999999"
		}
		if bigB {
			b += "99999999999999999999"
		}
		c := natKeyOf(a).compare(natKeyOf(b))
		return (c < 0) == atoiLessNatural(a, b) && (c > 0) == atoiLessNatural(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: searchNatural finds every name of a table at its position and
// no other name, on tables with and without gaps, and misses with (0, false).
func TestQuickSearchNatural(t *testing.T) {
	f := func(start uint8, gaps []uint8, probe uint16) bool {
		var names []string
		n := int(start) % 5
		for _, g := range gaps {
			n += int(g % 3) // two of three gaps are 0: mostly dense
			names = append(names, "d"+itoa(n))
			n++
		}
		tbl := ArenaTables{DataOff: []uint32{0}}
		for _, s := range names {
			tbl.Names += s
			tbl.DataOff = append(tbl.DataOff, uint32(len(tbl.Names)))
		}
		for i, s := range names {
			if j, ok := tbl.searchNatural(tbl.DataOff, s); !ok || int(j) != i {
				return false
			}
		}
		for _, x := range []string{"d" + itoa(int(probe)%600), "d0" + itoa(int(probe)%600), "S1", "d", ""} {
			want := slices.Index(names, x)
			if j, ok := tbl.searchNatural(tbl.DataOff, x); ok != (want >= 0) || (ok && int(j) != want) || (!ok && j != 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: FormatDataSet collapses exactly the consecutive numeric runs —
// formatting the ids from DataIDs(a, b) with b-a >= 2 always produces one
// "a..b" range.
func TestQuickFormatRange(t *testing.T) {
	f := func(start uint8, span uint8) bool {
		a := int(start)
		b := a + int(span)%200 + 2
		got := FormatDataSet(DataIDs(a, b))
		want := "{d" + itoa(a) + "..d" + itoa(b) + "}"
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every execution of the Figure 1 specification is a valid,
// conformant run whose log replays losslessly, for arbitrary seeds and
// iteration ranges.
func TestQuickExecuteAlwaysValid(t *testing.T) {
	f := func(seed int64, iterRaw, userRaw uint8) bool {
		s := specFixture()
		iters := int(iterRaw)%6 + 1
		users := int(userRaw)%4 + 1
		r, events, err := Execute(s, Config{
			RunID:     "q",
			Seed:      seed,
			LoopIter:  [2]int{1, iters},
			UserInput: [2]int{1, users},
		})
		if err != nil {
			return false
		}
		if r.Validate() != nil || r.ConformsTo(s) != nil {
			return false
		}
		back, err := FromLog("q", s.Name(), events)
		if err != nil {
			return false
		}
		return back.NumSteps() == r.NumSteps() && back.NumData() == r.NumData()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// specFixture returns the Figure 1 specification.
func specFixture() *spec.Spec { return spec.Phylogenomics() }
