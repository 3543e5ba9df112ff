package bitset

import (
	"math/rand"
	"testing"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if s.Words() != 3 {
		t.Fatalf("words = %d, want 3", s.Words())
	}
	for _, i := range []int32{0, 1, 63, 64, 127, 129} {
		if s.Has(i) {
			t.Fatalf("empty set has %d", i)
		}
		s.Add(i)
		if !s.Has(i) {
			t.Fatalf("set misses %d after Add", i)
		}
	}
	if s.Count() != 6 {
		t.Fatalf("count = %d, want 6", s.Count())
	}
	if s.Has(200) || s.Has(1<<20) {
		t.Fatal("out-of-capacity ids must read as absent")
	}
	var got []int32
	s.Each(func(i int32) { got = append(got, i) })
	want := []int32{0, 1, 63, 64, 127, 129}
	if len(got) != len(want) {
		t.Fatalf("Each visited %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Each order %v, want ascending %v", got, want)
		}
	}
	if m := s.Members(nil); len(m) != 6 || m[5] != 129 {
		t.Fatalf("Members = %v", m)
	}
	c := s.Clone()
	c.Reset()
	if c.Count() != 0 || s.Count() != 6 {
		t.Fatal("Reset on clone must not affect original")
	}
}

func TestAndOr(t *testing.T) {
	a, b := New(200), New(200)
	for i := int32(0); i < 200; i += 3 {
		a.Add(i)
	}
	for i := int32(0); i < 200; i += 5 {
		b.Add(i)
	}
	u := a.Clone()
	u.Or(b)
	x := a.Clone()
	x.And(b)
	for i := int32(0); i < 200; i++ {
		inA, inB := i%3 == 0, i%5 == 0
		if u.Has(i) != (inA || inB) {
			t.Fatalf("union wrong at %d", i)
		}
		if x.Has(i) != (inA && inB) {
			t.Fatalf("intersection wrong at %d", i)
		}
	}
	// And with a shorter set clears the excess words.
	short := New(64)
	short.Add(3)
	long := New(500)
	long.Add(3)
	long.Add(400)
	long.And(short)
	if !long.Has(3) || long.Has(400) || long.Count() != 1 {
		t.Fatal("And with shorter set must clear excess words")
	}
}

func TestEmptySubsetOf(t *testing.T) {
	a, b := New(130), New(130)
	if !a.Empty() || !a.SubsetOf(b) {
		t.Fatal("the empty set is empty and a subset of every set")
	}
	a.Add(129)
	if a.Empty() || a.SubsetOf(b) {
		t.Fatal("{129} is neither empty nor a subset of {}")
	}
	b.Add(129)
	b.Add(3)
	if !a.SubsetOf(b) || b.SubsetOf(a) {
		t.Fatal("{129} ⊆ {3, 129} but not the reverse")
	}
}

func TestAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 4096
	s := New(n)
	ref := make(map[int32]bool)
	for i := 0; i < 2000; i++ {
		v := int32(rng.Intn(n))
		s.Add(v)
		ref[v] = true
	}
	if s.Count() != len(ref) {
		t.Fatalf("count = %d, want %d", s.Count(), len(ref))
	}
	for i := int32(0); i < n; i++ {
		if s.Has(i) != ref[i] {
			t.Fatalf("membership of %d diverges", i)
		}
	}
}
