package warehouse

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// splitKeep partitions run ids by a trivial deterministic rule (length
// parity) — the tests don't need the real ring, just a 2-way split.
func splitKeep(part int) func(string) bool {
	return func(id string) bool { return len(id)%2 == part }
}

func TestSubsetSplitsRunsKeepsCatalog(t *testing.T) {
	w := snapshotWarehouse(t, 2)
	all := w.RunIDs()
	want := deepAnswers(t, w)

	var parts []*Warehouse
	total := 0
	for p := 0; p < 2; p++ {
		sub, err := w.Subset(splitKeep(p))
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, sub)
		total += sub.NumRuns()

		// Full spec and view catalog on every shard.
		if got, want := sub.SpecNames(), w.SpecNames(); !reflect.DeepEqual(got, want) {
			t.Fatalf("subset specs %v, want %v", got, want)
		}
		if got := sub.ViewNames("phylogenomics"); len(got) != 1 || got[0] != "joe" {
			t.Fatalf("subset views %v, want [joe]", got)
		}

		// Each kept run answers exactly as in the parent.
		subAnswers := deepAnswers(t, sub)
		for id, ds := range subAnswers {
			if !reflect.DeepEqual(ds, want[id]) {
				t.Fatalf("subset answer for %q differs from parent", id)
			}
		}
		for _, id := range sub.RunIDs() {
			if splitKeep(p)(id) != true {
				t.Fatalf("run %q on wrong side of the split", id)
			}
		}
	}
	if total != len(all) {
		t.Fatalf("subsets hold %d runs, parent has %d", total, len(all))
	}

	// Saved subsets round-trip as complete snapshots of their own.
	var buf bytes.Buffer
	mustT(t, parts[0].Save(&buf))
	back, err := Load(bytes.NewReader(buf.Bytes()), 0)
	mustT(t, err)
	if !reflect.DeepEqual(back.RunIDs(), parts[0].RunIDs()) {
		t.Fatalf("reloaded subset runs %v, want %v", back.RunIDs(), parts[0].RunIDs())
	}
}

// TestSubsetOfV3Materializes covers the lazy path: splitting a warehouse
// opened from a v3 (mmap) snapshot materializes kept runs on demand and
// the subsets can be saved before the parent closes.
func TestSubsetOfV3Materializes(t *testing.T) {
	w := snapshotWarehouse(t, 2)
	path := filepath.Join(t.TempDir(), "wh.v3")
	f, err := os.Create(path)
	mustT(t, err)
	mustT(t, w.SaveV3(f))
	mustT(t, f.Close())

	parent, err := OpenV3(path, 0, LoadOptions{})
	mustT(t, err)
	defer parent.Close()
	sub, err := parent.Subset(func(id string) bool { return strings.HasPrefix(id, "snap-") })
	mustT(t, err)
	if sub.NumRuns() == 0 || sub.NumRuns() == parent.NumRuns() {
		t.Fatalf("split selected %d of %d runs, want a strict subset", sub.NumRuns(), parent.NumRuns())
	}
	var buf bytes.Buffer
	mustT(t, sub.SaveV3(&buf))
	back, err := Load(bytes.NewReader(buf.Bytes()), 0)
	mustT(t, err)
	if !reflect.DeepEqual(back.RunIDs(), sub.RunIDs()) {
		t.Fatalf("reloaded v3 subset runs %v, want %v", back.RunIDs(), sub.RunIDs())
	}
}

func TestSubsetClosed(t *testing.T) {
	w := snapshotWarehouse(t, 1)
	mustT(t, w.Close())
	if _, err := w.Subset(func(string) bool { return true }); err == nil {
		t.Fatal("Subset on a closed warehouse should fail")
	}
}
