package jsontok

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// names exercise every escaping rule of encoding/json: the mandatory
// escapes, control bytes, the HTML-safe set, U+2028/9, DEL, multi-byte runes,
// invalid UTF-8 and a long plain name.
var names = []string{
	"", "d1", `say "hi"`, `back\slash`, "tab\there", "\x00\x1f", "\x7f", "<a>&", "line\u2028sep\u2029",
	"héllo", "日本語", "\xff\xfe", "a\xc3", strings.Repeat("0123456789abcdef", 256),
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range names {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("x"), s); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Fatalf("AppendString(%q) = %s, want x%s", s, got, want)
		}
	}
}

func TestTable(t *testing.T) {
	tab := Of(len(names), func(i int32) string { return names[i] })
	for i, s := range names {
		if got, want := tab.At(int32(i)), AppendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("entry %d = %s, want %s", i, got, want)
		}
	}
	longest := 0
	for i := range names {
		longest = max(longest, len(tab.At(int32(i))))
		for j := i; j < len(names); j++ {
			var want []byte
			for k := i; k <= j; k++ {
				if k > i {
					want = append(want, ',')
				}
				want = AppendString(want, names[k])
			}
			if got := tab.Span(int32(i), int32(j)); !bytes.Equal(got, want) {
				t.Fatalf("Span(%d, %d) = %s, want %s", i, j, got, want)
			}
		}
	}
	if tab.Longest() != longest {
		t.Fatalf("Longest() = %d, want %d", tab.Longest(), longest)
	}
	mixed := NewTable(3)
	mixed.Append("a")
	mixed.AppendAbsent()
	mixed.Append("")
	if a, none, empty := mixed.At(0), mixed.At(1), mixed.At(2); string(a) != `"a"` || len(none) != 0 || string(empty) != `""` {
		t.Fatalf("entries %q %q %q, want \"a\", absent, the empty string's token", a, none, empty)
	}
	if mixed.Longest() != 3 {
		t.Fatalf("Longest() = %d after \"a\", an absent entry and \"\", want 3", mixed.Longest())
	}
}

// TestOverMatchesOf holds a table over a names arena to Of, the table with
// explicit offsets: the same entries, spans and longest entry. Names that
// need no escaping leave the table without offsets of its own, reading each
// entry's start off the arena's offsets, which need not start at 0; one name
// that needs escaping keeps explicit offsets.
func TestOverMatchesOf(t *testing.T) {
	plain := []string{"S1", "S2", "S10", "d1", "d2", "d308", "", "héllo", "d10"}
	for _, c := range []struct {
		names []string
		own   bool
	}{{plain, false}, {names, true}, {append(plain[:3:3], `d"q"`), true}} {
		// The arena starts with a prefix the offsets skip, as a run's data
		// names follow its step and module names.
		arena := "prefix"
		off := []uint32{uint32(len(arena))}
		for _, s := range c.names {
			arena += s
			off = append(off, uint32(len(arena)))
		}
		over := Over(arena, off)
		want := Of(len(c.names), func(i int32) string { return c.names[i] })
		if own := over.step == 0; own != c.own {
			t.Fatalf("%q: table keeps its own offsets = %v, want %v", c.names, own, c.own)
		}
		if !c.own && over.Bytes() != cap(over.buf) {
			t.Fatalf("%q: Bytes() = %d, want the arena's %d", c.names, over.Bytes(), cap(over.buf))
		}
		for i := range c.names {
			for j := i; j < len(c.names); j++ {
				if got, w := over.Span(int32(i), int32(j)), want.Span(int32(i), int32(j)); !bytes.Equal(got, w) {
					t.Fatalf("%q: Span(%d, %d) = %s, want %s", c.names, i, j, got, w)
				}
			}
			if got, w := over.At(int32(i)), want.At(int32(i)); !bytes.Equal(got, w) {
				t.Fatalf("%q: At(%d) = %s, want %s", c.names, i, got, w)
			}
		}
		if over.Longest() != want.Longest() {
			t.Fatalf("%q: Longest() = %d, want %d", c.names, over.Longest(), want.Longest())
		}
	}
}

// TestOverPlainAllocs: over names with nothing to escape, Over allocates its
// arena and nothing else, no offsets it would then drop.
func TestOverPlainAllocs(t *testing.T) {
	arena := "S1S2S10d1d2d308d10"
	off := []uint32{0, 2, 4, 7, 9, 11, 15, 18}
	var tab Table
	if allocs := testing.AllocsPerRun(100, func() { tab = Over(arena, off) }); allocs != 1 {
		t.Fatalf("Over on plain names: %v allocs, want 1", allocs)
	}
	if tab.step == 0 || string(tab.Span(0, 6)) != `"S1","S2","S10","d1","d2","d308","d10"` {
		t.Fatalf("Over on plain names: own offsets %v, entries %s", tab.step == 0, tab.Span(0, 6))
	}
}
