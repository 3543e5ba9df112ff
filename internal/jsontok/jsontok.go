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

// Table is a sequence of tokens in one arena: two pointer-free slices
// however many names it holds. Entry i is either the token of the i-th name
// appended or absent (empty), which no token is. Each entry is stored with a
// comma after it, so consecutive entries are already a JSON list's interior
// and Span hands a whole stretch out as one slice: names interned in natural
// order put d308..d408 side by side, and an answer lists them that way. A
// Table is filled once and then only read.
type Table struct {
	buf     []byte
	off     []uint32 // entry i and its comma are buf[off[i]:off[i+1]]
	longest int      // the longest entry's length
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

// At returns entry i. The slice aliases the table; callers must not mutate
// it.
func (t *Table) At(i int32) []byte { return t.buf[t.off[i] : t.off[i+1]-1] }

// Longest returns the length of the table's longest entry: with Span's
// commas, n entries take at most n*(Longest()+1)-1 bytes.
func (t *Table) Longest() int { return t.longest }

// Span returns entries i through j (i <= j, none absent) joined by commas.
// The slice aliases the table; callers must not mutate it.
func (t *Table) Span(i, j int32) []byte { return t.buf[t.off[i] : t.off[j+1]-1] }

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
