package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/spec"
)

// phyloPartitionFromAssign turns 8 block indices into a candidate block
// map over the phylogenomics modules M1..M8.
func phyloPartitionFromAssign(assign [8]uint8) map[string][]string {
	blocks := make(map[string][]string)
	for i, b := range assign {
		name := fmt.Sprintf("B%d", int(b)%4)
		blocks[name] = append(blocks[name], fmt.Sprintf("M%d", i+1))
	}
	return blocks
}

// Property: every complete assignment of modules to blocks yields a valid
// view, and the view's accessors are mutually consistent: Size matches the
// block count, CompositeOf agrees with Members, and the induced graph has
// exactly Size+2 nodes.
func TestQuickPartitionConsistency(t *testing.T) {
	s := spec.Phylogenomics()
	f := func(assign [8]uint8) bool {
		blocks := phyloPartitionFromAssign(assign)
		v, err := NewUserView(s, blocks)
		if err != nil {
			return false
		}
		if v.Size() != len(blocks) {
			return false
		}
		for _, name := range v.Composites() {
			for _, m := range v.Members(name) {
				if c, ok := v.CompositeOf(m); !ok || c != name {
					return false
				}
			}
		}
		ind := v.Induced()
		return ind.NumNodes() == v.Size()+2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: Equal is an equivalence relation insensitive to block naming.
func TestQuickViewEqualInvariance(t *testing.T) {
	s := spec.Phylogenomics()
	f := func(assign [8]uint8) bool {
		blocks := phyloPartitionFromAssign(assign)
		v1, err := NewUserView(s, blocks)
		if err != nil {
			return false
		}
		renamed := make(map[string][]string, len(blocks))
		for name, members := range blocks {
			renamed["X"+name] = members
		}
		v2, err := NewUserView(s, renamed)
		if err != nil {
			return false
		}
		return v1.Equal(v1) && v1.Equal(v2) && v2.Equal(v1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: for every relevant subset of the phylogenomics modules, the
// builder output satisfies Properties 1-3, refines UBlackBox, and is
// refined by UAdmin.
func TestQuickBuilderPhyloSubsets(t *testing.T) {
	s := spec.Phylogenomics()
	admin := UAdmin(s)
	bb, err := UBlackBox(s)
	if err != nil {
		t.Fatal(err)
	}
	f := func(mask uint8) bool {
		var rel []string
		for i := 0; i < 8; i++ {
			if mask&(1<<uint(i)) != 0 {
				rel = append(rel, fmt.Sprintf("M%d", i+1))
			}
		}
		v, err := BuildRelevant(s, rel)
		if err != nil {
			return false
		}
		if CheckAll(v, rel) != nil {
			return false
		}
		return Refines(admin, v) && Refines(v, bb)
	}
	// The mask space is only 256 values; sweep it completely instead of
	// sampling.
	for mask := 0; mask < 256; mask++ {
		if !f(uint8(mask)) {
			t.Fatalf("builder property failed for relevant mask %08b", mask)
		}
	}
	// And keep one quick pass to exercise the harness plumbing.
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
