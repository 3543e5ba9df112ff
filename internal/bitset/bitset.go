// Package bitset provides the dense bit sets the compact run index is
// built on. A Set over n elements is ⌈n/64⌉ machine words; membership is a
// shift and a mask, union/intersection are word-wise loops, and iterating
// the members of a sparse set costs one trailing-zero count per member
// plus one word test per empty word — the representation that lets the
// warehouse hold a deep-provenance closure in a few cache lines instead of
// a hash map of strings.
package bitset

import "math/bits"

// Set is a fixed-capacity bit set. The zero value is an empty set of
// capacity zero; use New to size one. Sets are not safe for concurrent
// mutation, but any number of readers may share a set that is no longer
// being written — the warehouse freezes closure sets after construction.
type Set []uint64

// New returns an empty set able to hold members in [0, n).
func New(n int) Set {
	return make(Set, (n+63)/64)
}

// Add inserts i. It panics (index out of range) when i exceeds capacity,
// matching slice semantics — the index layer only adds interned ids.
func (s Set) Add(i int32) {
	s[uint32(i)>>6] |= 1 << (uint32(i) & 63)
}

// Has reports whether i is a member. Out-of-capacity ids are absent.
func (s Set) Has(i int32) bool {
	w := uint32(i) >> 6
	return int(w) < len(s) && s[w]&(1<<(uint32(i)&63)) != 0
}

// Count returns the number of members (population count).
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Words returns the number of backing machine words.
func (s Set) Words() int { return len(s) }

// Clone returns an independent copy.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// Reset clears every member, keeping capacity.
func (s Set) Reset() {
	for i := range s {
		s[i] = 0
	}
}

// Each calls fn for every member in ascending order.
func (s Set) Each(fn func(i int32)) {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(int32(wi*64 + b))
			w &= w - 1
		}
	}
}

// Members appends every member to dst in ascending order and returns it.
func (s Set) Members(dst []int32) []int32 {
	s.Each(func(i int32) { dst = append(dst, i) })
	return dst
}

// Empty reports whether s has no member.
func (s Set) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every member of s is a member of o. o must have
// at least s's capacity.
func (s Set) SubsetOf(o Set) bool {
	for i, w := range s {
		if w&^o[i] != 0 {
			return false
		}
	}
	return true
}

// And intersects s with o in place (s ∩= o). Capacities may differ; excess
// words of s are cleared.
func (s Set) And(o Set) {
	for i := range s {
		if i < len(o) {
			s[i] &= o[i]
		} else {
			s[i] = 0
		}
	}
}

// Or unions o into s (s ∪= o). Members of o beyond s's capacity panic,
// matching Add.
func (s Set) Or(o Set) {
	for i, w := range o {
		if w != 0 {
			s[i] |= w
		}
	}
}
