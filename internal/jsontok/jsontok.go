// Package jsontok is where a name becomes JSON bytes: the module's one
// string-escaping rule, and tables of names already run through it. A name's
// token ("d447", quotes included) depends on the name alone, so whoever owns
// the names escapes them once and the answer encoder copies tokens.
package jsontok

import (
	"encoding/json"
	"unicode/utf8"
)

// AppendString appends s as a JSON string, byte for byte what encoding/json
// writes. Ids are almost always printable ASCII with nothing to escape and
// are copied between quotes; a string with a quote, backslash, control byte,
// <, >, & or any non-ASCII byte (U+2028/9 and invalid UTF-8 among them) is
// handed to encoding/json, so its escaping rules are never restated here.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			raw, _ := json.Marshal(s) // a string always marshals
			return append(dst, raw...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// plain marks the bytes encoding/json copies unchanged wherever they stand.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// Table is a sequence of tokens in one arena: pointer-free slices however
// many names it holds. Entry i is either the token of the i-th name appended
// or absent (empty), which no token is. Each entry is stored with a comma
// after it, so consecutive entries are already a JSON list's interior and
// Span hands a whole stretch out as one slice: names interned in natural
// order put d308..d408 side by side, and an answer lists them that way. A
// Table is filled once and then only read.
type Table struct {
	buf []byte
	// Entry i and its comma are buf[start(i):start(i+1)], where start(i) is
	// off[i] + step*i - base: the table's own offsets (step and base 0), or,
	// for a table Over names that needed no escaping, the names' offsets,
	// each entry being its name, two quotes and a comma (step 3, base the
	// first name's offset).
	off        []uint32
	step, base uint32
	longest    int // the longest entry's length
}

// NewTable returns an empty table with room for n entries.
func NewTable(n int) Table {
	return Table{off: make([]uint32, 1, n+1)}
}

// Append adds the token of s as the next entry.
func (t *Table) Append(s string) {
	start := len(t.buf)
	t.buf = append(AppendString(t.buf, s), ',')
	t.off = append(t.off, uint32(len(t.buf)))
	t.longest = max(t.longest, len(t.buf)-1-start)
}

// AppendAbsent adds an absent entry.
func (t *Table) AppendAbsent() {
	t.buf = append(t.buf, ',')
	t.off = append(t.off, uint32(len(t.buf)))
}

// start is where entry i begins in buf.
func (t *Table) start(i int32) uint32 { return t.off[i] + t.step*uint32(i) - t.base }

// At returns entry i. The slice aliases the table; callers must not mutate
// it.
func (t *Table) At(i int32) []byte { return t.buf[t.start(i) : t.start(i+1)-1] }

// Longest returns the length of the table's longest entry: with Span's
// commas, n entries take at most n*(Longest()+1)-1 bytes.
func (t *Table) Longest() int { return t.longest }

// Span returns entries i through j (i <= j, none absent) joined by commas.
// The slice aliases the table; callers must not mutate it.
func (t *Table) Span(i, j int32) []byte { return t.buf[t.start(i) : t.start(j+1)-1] }

// Bytes is what the table holds: its arena and its own offsets. Offsets it
// reads from its names (Over) belong to whoever owns the names.
func (t *Table) Bytes() int {
	if t.step != 0 {
		return cap(t.buf)
	}
	return cap(t.buf) + 4*cap(t.off)
}

// Of returns the table of the n names name(0) .. name(n-1), in order. The
// arena is sized for names with nothing to escape, which is nearly all of
// them.
func Of(n int, name func(int32) string) Table {
	t := NewTable(n)
	size := 0
	for i := int32(0); i < int32(n); i++ {
		size += len(name(i)) + 3
	}
	t.buf = make([]byte, 0, size)
	for i := int32(0); i < int32(n); i++ {
		t.Append(name(i))
	}
	return t
}

// Over is Of over the names arena[off[i]:off[i+1]], with off non-decreasing,
// as a run lays its names out. When no name needs escaping, the arena is
// exactly the names' bytes plus three per name, and the table keeps no
// offsets of its own: it reads entry i's start off off, which must then stay
// unchanged for as long as the table is read. Names of plain bytes alone,
// found in one scan, are written straight into that arena; any other byte
// builds the table through Of, which may still find nothing escaped.
func Over(arena string, off []uint32) Table {
	n := len(off) - 1
	names := arena[off[0]:off[n]]
	for i := 0; i < len(names); i++ {
		if !plain[names[i]] {
			t := Of(n, func(j int32) string { return arena[off[j]:off[j+1]] })
			if len(t.buf) == len(names)+3*n {
				t.off, t.step, t.base = off, 3, off[0]
			}
			return t
		}
	}
	t := Table{buf: make([]byte, 0, len(names)+3*n), off: off, step: 3, base: off[0]}
	for i := 0; i < n; i++ {
		name := arena[off[i]:off[i+1]]
		t.buf = append(append(append(t.buf, '"'), name...), '"', ',')
		t.longest = max(t.longest, len(name)+2)
	}
	return t
}
