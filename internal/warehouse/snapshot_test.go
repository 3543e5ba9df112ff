package warehouse

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/wflog"
)

// snapshotWarehouse builds a warehouse with the phylogenomics example (plus
// a registered view and annotated input) and a spread of generated runs
// across the Table II classes — the fixture the snapshot tests serialize.
func snapshotWarehouse(t testing.TB, runsPerClass int) *Warehouse {
	t.Helper()
	w := New(0)
	ph := spec.Phylogenomics()
	mustT(t, w.RegisterSpec(ph))
	mustT(t, w.LoadRun(figure2With(t, map[string]string{"who": "joe", "when": "2008-04-07"})))
	joe, err := core.BuildRelevant(ph, spec.PhyloRelevantJoe())
	mustT(t, err)
	mustT(t, w.RegisterView("joe", joe))

	g := gen.NewGenerator(42)
	classes := gen.RunClasses()
	classes[2].MaxNodes = 600 // keep "large" test-sized
	for ci, rc := range classes {
		s := g.Workflow(gen.Class4(), fmt.Sprintf("snap-%s", rc.Name))
		mustT(t, w.RegisterSpec(s))
		for i := 0; i < runsPerClass; i++ {
			gr, _, err := g.Run(s, rc, fmt.Sprintf("snap-%s-r%d", rc.Name, i))
			mustT(t, err)
			mustT(t, w.LoadRun(gr))
		}
		_ = ci
	}
	return w
}

// deepAnswers queries the UAdmin deep provenance of every run's last final
// output, returning a comparable map.
func deepAnswers(t testing.TB, w *Warehouse) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	for _, id := range w.RunIDs() {
		r, err := w.Run(id)
		mustT(t, err)
		finals := r.FinalOutputs()
		if len(finals) == 0 {
			continue
		}
		cl, err := w.DeepProvenance(id, finals[len(finals)-1])
		mustT(t, err)
		var ds []string
		for d := range dataSet(cl) {
			ds = append(ds, d)
		}
		sort.Strings(ds)
		out[id] = ds
	}
	return out
}

// catalog compares the non-cache portion of Stats.
func catalog(s Stats) Stats {
	s.Cache = CacheCounters{}
	return s
}

// TestSaveV1RoundTripElementIdentical: Save → Load → Save yields the same
// v1 bytes (specs, views, runs, flows in node-code order, and meta).
func TestSaveV1RoundTripElementIdentical(t *testing.T) {
	w := snapshotWarehouse(t, 2)
	var buf1 bytes.Buffer
	mustT(t, w.Save(&buf1))
	back, err := Load(bytes.NewReader(buf1.Bytes()), 0)
	mustT(t, err)
	var buf2 bytes.Buffer
	mustT(t, back.Save(&buf2))
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("v1 snapshot not byte-identical after round trip")
	}
}

// TestSaveV1FlowOrderIndependentOfLoad: a run whose log started its steps
// out of natural order (S2, S10, S9) saves its flows in node-code order, as
// its reloaded twins do, so its v1 bytes are the same saved directly, after
// a v1 save and load, and after a v3 save and load.
func TestSaveV1FlowOrderIndependentOfLoad(t *testing.T) {
	s := spec.New("chain")
	for _, m := range []string{"A", "B", "C"} {
		s.MustAddModule(spec.Module{Name: m})
	}
	for _, e := range [][2]string{{spec.Input, "A"}, {"A", "B"}, {"B", "C"}, {"C", spec.Output}} {
		s.MustAddEdge(e[0], e[1])
	}
	lb := wflog.NewBuilder()
	for i, st := range [][2]string{{"S2", "A"}, {"S10", "B"}, {"S9", "C"}} {
		lb.Start(st[0], st[1])
		lb.Reads(st[0], fmt.Sprintf("d%d", i+1))
		lb.Writes(st[0], fmt.Sprintf("d%d", i+2))
	}
	w := New(0)
	mustT(t, w.RegisterSpec(s))
	mustT(t, w.LoadLog("ooo", "chain", lb.Events()))

	var direct, v3 bytes.Buffer
	mustT(t, w.Save(&direct))
	mustT(t, w.SaveV3(&v3))
	for name, image := range map[string][]byte{"v1": direct.Bytes(), "v3": v3.Bytes()} {
		back, err := Load(bytes.NewReader(image), 0)
		mustT(t, err)
		var again bytes.Buffer
		mustT(t, back.Save(&again))
		if !bytes.Equal(again.Bytes(), direct.Bytes()) {
			t.Fatalf("v1 bytes after a %s round trip differ:\n%s\nsaved directly:\n%s", name, again.Bytes(), direct.Bytes())
		}
	}
}

// TestLoadAutoDetect: the same warehouse saved in both formats loads to the
// same contents through the one Load entry point.
func TestLoadAutoDetect(t *testing.T) {
	w := snapshotWarehouse(t, 1)
	var v1, v3 bytes.Buffer
	mustT(t, w.Save(&v1))
	mustT(t, w.SaveV3(&v3))

	from1, err := Load(bytes.NewReader(v1.Bytes()), 0)
	mustT(t, err)
	from3, err := Load(bytes.NewReader(v3.Bytes()), 0)
	mustT(t, err)
	if !reflect.DeepEqual(from1.RunIDs(), from3.RunIDs()) {
		t.Fatal("formats disagree on runs")
	}
	if !reflect.DeepEqual(deepAnswers(t, from1), deepAnswers(t, from3)) {
		t.Fatal("formats disagree on provenance answers")
	}
}

// TestLoadHeaderDispatch is the format-sniffing table: '{' is v1 JSON,
// "ZOOM\x03" is v3, the retired v2 header is refused with its own sentinel
// (which names the way out) on every entry point, and everything else —
// unknown version, bad magic, empty or too-short input — keeps a well-formed
// error that is not the v2 sentinel.
func TestLoadHeaderDispatch(t *testing.T) {
	w := snapshotWarehouse(t, 1)
	var v1, v3 bytes.Buffer
	mustT(t, w.Save(&v1))
	mustT(t, w.SaveV3(&v3))
	withVersion := func(ver byte) []byte {
		img := append([]byte(nil), v3.Bytes()...)
		img[4] = ver
		return img
	}
	const loads, retired = "", "v2 snapshot"
	for _, tc := range []struct {
		name string
		in   []byte
		// Expected error substring from the reader path (LoadWith) and from
		// the mapped path (OpenV3); loads means no error. A mapped file has
		// no reader to run dry, so short images are "truncated" there.
		load, open string
	}{
		{"v1 JSON", v1.Bytes(), loads, "bad snapshot magic"},
		{"v3", v3.Bytes(), loads, loads},
		{"v2 header only", []byte("ZOOM\x02"), retired, retired},
		{"v2 full-size image", withVersion(2), retired, retired},
		{"unknown version 9", withVersion(9), "unsupported snapshot version 9", "unsupported snapshot version 9"},
		{"bad magic", []byte("ZXXX\x03 and then some"), "bad snapshot magic", "bad snapshot magic"},
		{"empty", nil, "EOF", "truncated"},
		{"three bytes", []byte("ZOO"), "unexpected EOF", "truncated"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := func(entry, want string, err error) {
				t.Helper()
				if want == loads {
					if err != nil {
						t.Fatalf("%s: %v", entry, err)
					}
					return
				}
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("%s: err = %v, want one containing %q", entry, err, want)
				}
				// The sentinel is for v2 and only v2, and names the way out.
				if errors.Is(err, ErrSnapshotV2Retired) != (want == retired) {
					t.Fatalf("%s: errors.Is(err, ErrSnapshotV2Retired) = %v for %v", entry, want != retired, err)
				}
				if want == retired && !strings.Contains(err.Error(), "zoom snapshot convert") {
					t.Fatalf("%s: %q does not name the way out", entry, err)
				}
			}
			_, err := LoadWith(bytes.NewReader(tc.in), 0, LoadOptions{})
			check("LoadWith", tc.load, err)

			path := filepath.Join(t.TempDir(), "snap")
			mustT(t, os.WriteFile(path, tc.in, 0o644))
			back, err := OpenV3(path, 0, LoadOptions{})
			if err == nil {
				defer back.Close()
			}
			check("OpenV3", tc.open, err)
		})
	}
}

// TestLoadParallelDeterministicError: when several runs are corrupt, the
// load reports the error of the lowest-indexed bad run.
func TestLoadParallelDeterministicError(t *testing.T) {
	w := snapshotWarehouse(t, 4)
	var buf bytes.Buffer
	mustT(t, w.Save(&buf))
	var snap snapshot
	mustT(t, json.Unmarshal(buf.Bytes(), &snap))
	if len(snap.Runs) < 4 {
		t.Fatalf("fixture too small: %d runs", len(snap.Runs))
	}
	// Corrupt runs 1 and 3 differently: run 1 gets a self flow, run 3 an
	// unknown step.
	snap.Runs[1].Flows = append(snap.Runs[1].Flows, run.Flow{From: snap.Runs[1].Steps[0].ID, To: snap.Runs[1].Steps[0].ID, Data: []string{"zz1"}})
	snap.Runs[3].Flows = append(snap.Runs[3].Flows, run.Flow{From: "ghost-step", To: snap.Runs[3].Steps[0].ID, Data: []string{"zz2"}})
	blob, err := json.Marshal(&snap)
	mustT(t, err)

	_, err = Load(bytes.NewReader(blob), 0)
	if err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	if !strings.Contains(err.Error(), snap.Runs[1].ID) {
		t.Fatalf("load did not fail on the first bad run: %v", err)
	}
}

// TestLoadProgress: a v1 load of k runs reports (0,k), (1,k) … (k,k), in
// order and once each; a v3 open, which has no load phase, reports (k,k)
// once.
func TestLoadProgress(t *testing.T) {
	w := snapshotWarehouse(t, 2)
	k := w.NumRuns()
	var v1, v3 bytes.Buffer
	mustT(t, w.Save(&v1))
	mustT(t, w.SaveV3(&v3))
	var calls [][2]int
	opts := LoadOptions{Progress: func(loaded, total int) { calls = append(calls, [2]int{loaded, total}) }}

	_, err := LoadWith(bytes.NewReader(v1.Bytes()), 0, opts)
	mustT(t, err)
	var want [][2]int
	for i := 0; i <= k; i++ {
		want = append(want, [2]int{i, k})
	}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("v1 progress = %v, want %v", calls, want)
	}

	calls = nil
	path := filepath.Join(t.TempDir(), "wh.v3")
	mustT(t, os.WriteFile(path, v3.Bytes(), 0o644))
	back, err := OpenV3(path, 0, opts)
	mustT(t, err)
	defer back.Close()
	if want := [][2]int{{k, k}}; !reflect.DeepEqual(calls, want) {
		t.Fatalf("v3 progress = %v, want %v", calls, want)
	}
}

// FuzzSnapshotLoad feeds Load arbitrary bytes, seeded with valid v1 and v3
// snapshots, corruptions of both, and one retired-v2 image that must be
// refused. Load must never panic; when it succeeds, the resulting warehouse
// must re-save in both writable formats and contain only valid runs (the
// generic reader path eagerly materializes v3 runs, so this invariant
// covers v3 too).
func FuzzSnapshotLoad(f *testing.F) {
	w := New(0)
	if err := w.RegisterSpec(spec.Phylogenomics()); err != nil {
		f.Fatal(err)
	}
	if err := w.LoadRun(run.Figure2()); err != nil {
		f.Fatal(err)
	}
	var v1, v3 bytes.Buffer
	if err := w.Save(&v1); err != nil {
		f.Fatal(err)
	}
	if err := w.SaveV3(&v3); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	f.Add(v3.Bytes())
	f.Add(v1.Bytes()[:v1.Len()/2])
	f.Add(v3.Bytes()[:v3.Len()/2])
	// The first bytes of a v2 snapshot of this warehouse (header, then the
	// uvarint spec count and the first JSON island's length prefix).
	f.Add([]byte("ZOOM\x02\x01\xd7\x05{\"name\":\"phylogenomics\""))
	f.Add([]byte("ZOOM\x03"))
	f.Add([]byte("Z"))
	f.Add([]byte("{}"))
	f.Add([]byte{})
	corrupt1 := append([]byte(nil), v1.Bytes()...)
	for i := 6; i < len(corrupt1); i += 11 {
		corrupt1[i] ^= 0x55
	}
	f.Add(corrupt1)
	corrupt3 := append([]byte(nil), v3.Bytes()...)
	for i := 6; i < len(corrupt3); i += 131 {
		corrupt3[i] ^= 0x55
	}
	f.Add(corrupt3)
	f.Fuzz(func(t *testing.T, data []byte) {
		back, err := Load(bytes.NewReader(data), 0)
		if bytes.HasPrefix(data, []byte("ZOOM\x02")) && !errors.Is(err, ErrSnapshotV2Retired) {
			t.Fatalf("v2 header: err = %v, want ErrSnapshotV2Retired", err)
		}
		if err != nil {
			return
		}
		for _, id := range back.RunIDs() {
			r, err := back.Run(id)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Validate(); err != nil {
				t.Fatalf("loaded invalid run %q: %v", id, err)
			}
		}
		var b1, b3 bytes.Buffer
		if err := back.Save(&b1); err != nil {
			t.Fatalf("re-save v1: %v", err)
		}
		if err := back.SaveV3(&b3); err != nil {
			t.Fatalf("re-save v3: %v", err)
		}
	})
}
