package warehouse

import (
	"errors"
	"testing"
)

// TestMemo pins the rules every memo keeps, whatever it holds: the least
// recently used entry goes first (use, not insertion, decides), a failed
// build is not kept and is built again, a build that does not keep its
// value stores nothing, deleteFunc counts each removal as a drop, and Held
// counts each entry's size plus the memo's overhead.
func TestMemo(t *testing.T) {
	m := newMemo(3, "test", func(_ int, v string) int { return len(v) })
	get := func(k int, v string, err error, store bool) (string, Outcome, error) {
		t.Helper()
		return m.Get(nil, k, func(keep func(string)) (string, error) {
			if err == nil && store {
				keep(v)
			}
			return v, err
		})
	}
	held := func(label string, values ...string) {
		t.Helper()
		bytes := 0
		for _, v := range values {
			bytes += len(v) + m.overhead
		}
		if h := m.Held(); h != (MemoStats{Entries: len(values), Bytes: bytes}) {
			t.Fatalf("%s: memo holds %+v, want %d entries of %d bytes", label, h, len(values), bytes)
		}
	}
	if m.overhead <= 0 {
		t.Fatalf("per-entry overhead %d, want it counted", m.overhead)
	}

	for k, v := range []string{"a", "bb", "ccc"} {
		if _, o, err := get(k, v, nil, true); err != nil || o != OutcomeMiss {
			t.Fatalf("first build of %d: %v, %v; want a miss", k, o, err)
		}
	}
	held("three built", "a", "bb", "ccc")
	// Key 0 was inserted first but is used now, so key 1 is the least
	// recently used when key 3 needs room.
	if v, o, _ := get(0, "rebuilt", nil, true); v != "a" || o != OutcomeHit {
		t.Fatalf("key 0: %q, %v; want the stored \"a\" as a hit", v, o)
	}
	get(3, "dddd", nil, true)
	if c := m.Counters(); c.Evictions != 1 {
		t.Fatalf("%d evictions, want 1", c.Evictions)
	}
	held("one evicted", "a", "ccc", "dddd")
	if _, o, _ := get(0, "a", nil, true); o != OutcomeHit {
		t.Fatalf("recently used key 0: %v, want a hit", o)
	}
	if _, o, _ := get(1, "bb", nil, false); o != OutcomeMiss {
		t.Fatalf("least recently used key 1: %v, want it evicted", o)
	}

	// A failed build reaches its caller, is not kept, and the next lookup
	// of its key builds again: each is a miss.
	boom := errors.New("boom")
	before := m.Counters()
	for i := 0; i < 2; i++ {
		if _, o, err := get(9, "", boom, true); !errors.Is(err, boom) || o != OutcomeMiss {
			t.Fatalf("failed build %d: %v, %v; want boom as a miss", i, o, err)
		}
	}
	if c := m.Counters(); c.Misses-before.Misses != 2 || c.Stores != before.Stores {
		t.Fatalf("two failed builds: %d misses and %d stores, want 2 and 0", c.Misses-before.Misses, c.Stores-before.Stores)
	}
	// A build that keeps nothing stores nothing (key 1 above, key 8 here).
	if v, _, err := get(8, "unkept", nil, false); v != "unkept" || err != nil {
		t.Fatalf("unkept build: %q, %v", v, err)
	}
	held("after failed and unkept builds", "a", "ccc", "dddd")

	m.deleteFunc(func(k int) bool { return k != 0 })
	if c := m.Counters(); c.Drops != 2 {
		t.Fatalf("deleteFunc removed 2 entries, counted %d drops", c.Drops)
	}
	held("two deleted", "a")
	checkQuiescentInvariants(t, m.Counters(), m.Counters().Hits+m.Counters().Misses, m.Held().Entries)
}

// TestMemoMissAllocs pins what a miss costs the memo itself: its flight,
// the flight's channel, the entry, its list element and the keep callback,
// five allocations. The build here allocates nothing, and the key and
// value are preallocated, so any further allocation is the memo's: a span
// name concatenated per miss, say, would show as a sixth.
func TestMemoMissAllocs(t *testing.T) {
	m := newMemo(1, "test", func(int, *Closure) int { return 0 })
	c := testClosure("d1", nil, []string{"d1"})
	build := func(keep func(*Closure)) (*Closure, error) {
		keep(c)
		return c, nil
	}
	next := 0
	allocs := testing.AllocsPerRun(100, func() {
		next++
		if _, o, err := m.Get(nil, next, build); o != OutcomeMiss || err != nil {
			t.Fatalf("key %d: %v, %v; want a miss", next, o, err)
		}
	})
	if allocs != 5 {
		t.Fatalf("a memo miss allocates %.0f times, want 5", allocs)
	}
}
