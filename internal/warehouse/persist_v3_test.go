package warehouse

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/xxh"
)

// saveV3Temp saves w as a v3 snapshot in a temp file and returns the path
// and the raw image.
func saveV3Temp(t testing.TB, w *Warehouse) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	mustT(t, w.SaveV3(&buf))
	path := filepath.Join(t.TempDir(), "snap.v3")
	mustT(t, os.WriteFile(path, buf.Bytes(), 0o644))
	return path, buf.Bytes()
}

// openV3Image opens a v3 image from an aligned heap copy of data — the
// corruption tests' entry point (no temp file per mutation).
func openV3Image(data []byte, opts LoadOptions) (*Warehouse, error) {
	buf := alignedBytes(len(data))
	copy(buf, data)
	return openV3Bytes(buf, false, nil, 0, opts)
}

// TestSaveV3RoundTrip: SaveV3 → OpenV3 restores an equivalent warehouse —
// same catalog, views, metadata and deep-provenance answers — and a second
// SaveV3 from the opened warehouse is byte-identical (the format is
// canonical: sorted sections, sorted runs, deterministic blocks).
func TestSaveV3RoundTrip(t *testing.T) {
	w := snapshotWarehouse(t, 2)
	path, img := saveV3Temp(t, w)

	back, err := OpenV3(path, 0, LoadOptions{})
	mustT(t, err)
	defer back.Close()

	if !reflect.DeepEqual(back.SpecNames(), w.SpecNames()) {
		t.Fatal("specs differ after v3 round trip")
	}
	if !reflect.DeepEqual(back.RunIDs(), w.RunIDs()) {
		t.Fatal("runs differ after v3 round trip")
	}
	v, err := back.View("phylogenomics", "joe")
	mustT(t, err)
	orig, err := w.View("phylogenomics", "joe")
	mustT(t, err)
	if !v.Equal(orig) {
		t.Fatal("view differs after v3 round trip")
	}
	r, err := back.Run("fig2")
	mustT(t, err)
	if got := r.InputMeta("d1"); got["who"] != "joe" || got["when"] != "2008-04-07" {
		t.Fatalf("metadata lost: %v", got)
	}
	if !reflect.DeepEqual(deepAnswers(t, back), deepAnswers(t, w)) {
		t.Fatal("provenance answers differ after v3 round trip")
	}

	var buf2 bytes.Buffer
	mustT(t, back.SaveV3(&buf2))
	if !bytes.Equal(img, buf2.Bytes()) {
		t.Fatalf("v3 snapshot not byte-stable: %d vs %d bytes", len(img), buf2.Len())
	}

	// The same image loads through the generic auto-detecting reader too.
	fromReader, err := Load(bytes.NewReader(img), 0)
	mustT(t, err)
	if !reflect.DeepEqual(deepAnswers(t, fromReader), deepAnswers(t, w)) {
		t.Fatal("reader-path v3 load disagrees")
	}
}

// TestOpenV3Lazy: opening is O(catalog) — no run is materialized until
// queried — while Stats still reports full catalog counts from the run
// directory, and materialization progresses per touched run.
func TestOpenV3Lazy(t *testing.T) {
	w := snapshotWarehouse(t, 1)
	wantStats := catalog(w.Stats())
	path, _ := saveV3Temp(t, w)

	back, err := OpenV3(path, 0, LoadOptions{})
	mustT(t, err)
	defer back.Close()

	st := back.Stats()
	if st.Snapshot.Version != 3 || st.Snapshot.RunsTotal != len(w.RunIDs()) {
		t.Fatalf("snapshot stats: %+v", st.Snapshot)
	}
	if st.Snapshot.RunsMaterialized != 0 {
		t.Fatalf("open materialized %d runs", st.Snapshot.RunsMaterialized)
	}
	if st.Steps != wantStats.Steps || st.DataObjects != wantStats.DataObjects || st.FlowEdges != wantStats.FlowEdges {
		t.Fatalf("directory counts diverge: got %d/%d/%d want %d/%d/%d",
			st.Steps, st.DataObjects, st.FlowEdges, wantStats.Steps, wantStats.DataObjects, wantStats.FlowEdges)
	}

	if _, err := back.Run("fig2"); err != nil {
		t.Fatal(err)
	}
	if got := back.Stats().Snapshot.RunsMaterialized; got != 1 {
		t.Fatalf("after one query %d runs materialized, want 1", got)
	}
	// Directory counts and materialized counts must agree: totals unchanged.
	st = back.Stats()
	if st.Steps != wantStats.Steps || st.DataObjects != wantStats.DataObjects || st.FlowEdges != wantStats.FlowEdges {
		t.Fatalf("counts changed across materialization: %+v", st)
	}
}

// TestV3CloseLifecycle: Close releases the snapshot and every subsequent
// run-touching operation fails with ErrClosed — cleanly, never a fault
// from an unmapped slice. Close is idempotent, and results obtained before
// Close stay usable (strings are copies, closures hold heap bitsets).
func TestV3CloseLifecycle(t *testing.T) {
	w := snapshotWarehouse(t, 1)
	path, _ := saveV3Temp(t, w)
	back, err := OpenV3(path, 0, LoadOptions{})
	mustT(t, err)

	r, err := back.Run("fig2")
	mustT(t, err)
	finals := r.FinalOutputs()
	cl, err := back.DeepProvenance("fig2", finals[len(finals)-1])
	mustT(t, err)
	preData := dataSet(cl)

	mustT(t, back.Close())
	mustT(t, back.Close()) // idempotent

	if _, err := back.Run("fig2"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close: %v", err)
	}
	if _, err := back.DeepProvenance("fig2", finals[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("DeepProvenance after Close: %v", err)
	}
	if _, _, err := back.ImmediateProvenance("fig2", finals[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("ImmediateProvenance after Close: %v", err)
	}
	if err := back.SaveV3(new(bytes.Buffer)); !errors.Is(err, ErrClosed) {
		t.Fatalf("SaveV3 after Close: %v", err)
	}
	if err := back.Save(new(bytes.Buffer)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Save after Close: %v", err)
	}
	if err := back.LoadRun(run.Figure2()); !errors.Is(err, ErrClosed) {
		t.Fatalf("LoadRun after Close: %v", err)
	}
	if _, err := back.Run("fig2"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close: %v", err)
	}
	// Pre-Close results remain intact (their strings were copied out of the
	// arena at materialization).
	for d := range preData {
		if d == "" {
			t.Fatal("dangling data name")
		}
	}
	// Stats must not fault either.
	_ = back.Stats()
}

// TestV3RejectsTruncation: every prefix cut of a valid image is rejected
// with a descriptive error at open or at first query — never accepted
// silently, never a panic.
func TestV3RejectsTruncation(t *testing.T) {
	w := snapshotWarehouse(t, 1)
	var buf bytes.Buffer
	mustT(t, w.SaveV3(&buf))
	good := buf.Bytes()

	for _, cut := range []int{0, 1, 4, 5, 63, 64, 100, len(good) / 4, len(good) / 2, len(good) - 1} {
		if _, err := openV3Image(good[:cut], LoadOptions{}); err == nil {
			t.Fatalf("truncation at %d accepted at open", cut)
		}
	}
}

// TestV3RejectsBitFlips: flipping any byte of the image must surface as a
// checksum (or structural) error at open or at query time. Queries against
// a corrupted-but-opened snapshot return errors; they never panic, which
// is the safety property the aliased slices depend on.
func TestV3RejectsBitFlips(t *testing.T) {
	w := snapshotWarehouse(t, 1)
	var buf bytes.Buffer
	mustT(t, w.SaveV3(&buf))
	good := buf.Bytes()
	want := deepAnswers(t, w)

	stride := 131
	if testing.Short() {
		stride = 997
	}
	clean := 0
	for i := 0; i < len(good); i += stride {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0xff
		back, err := openV3Image(mut, LoadOptions{})
		if err != nil {
			continue // rejected at open: fine
		}
		// Opened: either every query answers exactly like the original (the
		// flip hit padding) or the damaged runs error out cleanly.
		got := make(map[string][]string)
		for _, id := range back.RunIDs() {
			r, err := back.Run(id)
			if err != nil {
				continue
			}
			mustT(t, r.Validate())
			finals := r.FinalOutputs()
			if len(finals) == 0 {
				continue
			}
			cl, err := back.DeepProvenance(id, finals[len(finals)-1])
			if err != nil {
				continue
			}
			var ds []string
			for d := range dataSet(cl) {
				ds = append(ds, d)
			}
			sort.Strings(ds)
			got[id] = ds
		}
		for id, ds := range got {
			if !reflect.DeepEqual(ds, want[id]) {
				t.Fatalf("flip at %d silently changed answers for %q", i, id)
			}
		}
		if len(got) == len(want) {
			clean++
		}
	}
	_ = clean
}

// TestV3BlockChecksum: damaging one run's block leaves the warehouse
// openable, fails exactly that run with a checksum error (sticky across
// retries), and leaves every other run answering correctly.
func TestV3BlockChecksum(t *testing.T) {
	w := snapshotWarehouse(t, 1)
	var buf bytes.Buffer
	mustT(t, w.SaveV3(&buf))
	img := buf.Bytes()

	// Find the fig2 block via the open path, then flip a byte inside it.
	pristine, err := openV3Image(img, LoadOptions{})
	mustT(t, err)
	rt := pristine.runs["fig2"]
	if rt == nil || rt.lazy == nil {
		t.Fatal("fixture: fig2 not lazy")
	}
	off := int(rt.lazy.rec.blockOff) + 40 // inside the block, past the header counts

	mut := append([]byte(nil), img...)
	mut[off] ^= 0x01
	back, err := openV3Image(mut, LoadOptions{})
	mustT(t, err) // open succeeds: block integrity is lazy by design

	_, err = back.Run("fig2")
	if err == nil || !strings.Contains(err.Error(), "fig2") {
		t.Fatalf("damaged block: %v", err)
	}
	_, err2 := back.Run("fig2")
	if err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("materialization error not sticky: %v vs %v", err2, err)
	}
	// Other runs still answer, and the damaged one is excluded from both.
	got := deepAnswers2(t, back)
	wantAll := deepAnswers(t, w)
	delete(wantAll, "fig2")
	if !reflect.DeepEqual(got, wantAll) {
		t.Fatal("healthy runs affected by another run's damaged block")
	}
}

// TestV3FirstTouchAllocs pins what first touch of a mapped run is: checks
// over the block plus a handful of tables (the name tables, the flow list,
// the index), not a string-keyed copy of the run. A Class4-large run (about
// 1,100 steps and 6,000 data objects) materialized with 9,330 allocations
// when it was, and with 7 since names are read through the block's offsets;
// the ceiling keeps that from creeping back.
func TestV3FirstTouchAllocs(t *testing.T) {
	const measured = 3
	g := gen.NewGenerator(10)
	s := g.Workflow(gen.Class4(), "touch")
	w := New(0)
	mustT(t, w.RegisterSpec(s))
	ids := make([]string, measured+1) // AllocsPerRun warms up with one call
	for i := range ids {
		ids[i] = "touch-" + string(rune('a'+i))
		r, _, err := g.Run(s, gen.Large(), ids[i])
		mustT(t, err)
		mustT(t, w.LoadRun(r))
	}
	path, _ := saveV3Temp(t, w)
	mapped, err := OpenV3(path, 0, LoadOptions{})
	mustT(t, err)
	defer mapped.Close()
	next := 0
	allocs := testing.AllocsPerRun(measured, func() {
		r, err := mapped.Run(ids[next])
		if err != nil || r.NumSteps() < 500 {
			t.Fatalf("touch %s: %v, %v", ids[next], r, err)
		}
		next++
	})
	if st := mapped.Stats().Snapshot; st.RunsMaterialized != len(ids) {
		t.Fatalf("touched %d runs, %d materialized", len(ids), st.RunsMaterialized)
	}
	if allocs > 8 {
		t.Fatalf("first touch of a mapped Class4-large run: %.0f allocations, ceiling 8", allocs)
	}
	t.Logf("first touch: %.0f allocations", allocs)
}

// TestV3TouchedRunHeap pins what a touched mapped run keeps on the heap:
// one copy of its names and the index over the mapping, not a string
// header per name or a table of flows. Twenty Class4-large runs (about
// 1,100 steps and 6,000 data objects each) kept 213 KB per run when the
// index held both, and keep 43.6 KB since names are read through the
// block's offsets; the arena alone is about a sixth of the 213 KB.
func TestV3TouchedRunHeap(t *testing.T) {
	const runs, ceiling = 20, 48 << 10
	g := gen.NewGenerator(10)
	s := g.Workflow(gen.Class4(), "heap")
	w := New(0)
	mustT(t, w.RegisterSpec(s))
	for i := 0; i < runs; i++ {
		r, _, err := g.Run(s, gen.Large(), fmt.Sprintf("heap-%02d", i))
		mustT(t, err)
		mustT(t, w.LoadRun(r))
	}
	path, _ := saveV3Temp(t, w)
	w = nil
	mapped, err := OpenV3(path, 0, LoadOptions{})
	mustT(t, err)
	defer mapped.Close()
	live := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	base := live()
	for _, id := range mapped.RunIDs() {
		r, err := mapped.Run(id)
		if err != nil || r.NumSteps() < 500 {
			t.Fatalf("touch %s: %v, %v", id, r, err)
		}
	}
	perRun := (live() - base) / runs
	runtime.KeepAlive(mapped)
	if st := mapped.Stats().Snapshot; st.RunsMaterialized != runs {
		t.Fatalf("touched %d runs, %d materialized", runs, st.RunsMaterialized)
	}
	t.Logf("live heap per touched Class4-large run: %.1f KB", float64(perRun)/1024)
	if perRun > ceiling {
		t.Fatalf("a touched mapped run keeps %d bytes of live heap, ceiling %d", perRun, ceiling)
	}
}

// deepAnswers2 is deepAnswers tolerating per-run materialization errors
// (skipping failed runs).
func deepAnswers2(t testing.TB, w *Warehouse) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	for _, id := range w.RunIDs() {
		r, err := w.Run(id)
		if err != nil {
			continue
		}
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

// TestConcurrentV3Materialization: many goroutines race first queries
// against a freshly opened v3 warehouse — concurrent lazy materialization
// and Stats scans run under -race — and every answer matches the
// heap-loaded v1 warehouse byte for byte.
func TestConcurrentV3Materialization(t *testing.T) {
	w := snapshotWarehouse(t, 2)
	var v1 bytes.Buffer
	mustT(t, w.Save(&v1))
	heap, err := Load(bytes.NewReader(v1.Bytes()), 0)
	mustT(t, err)
	want := deepAnswers(t, heap)

	path, _ := saveV3Temp(t, w)
	back, err := OpenV3(path, 0, LoadOptions{})
	mustT(t, err)
	defer back.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := deepAnswers2(t, back)
			if !reflect.DeepEqual(got, want) {
				errs <- errors.New("concurrent v3 answers diverge from v1")
			}
		}()
	}
	// Stats scans race the materializations.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = back.Stats()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := back.Stats().Snapshot
	if st.RunsMaterialized != st.RunsTotal {
		t.Fatalf("not all runs materialized: %+v", st)
	}
}

// FuzzSnapshotV3 feeds the v3 open path arbitrary images (seeded with a
// valid snapshot and systematic corruptions). Opening must never panic;
// when it succeeds, every queryable run must be valid and re-save must
// work once failed runs are absent.
func FuzzSnapshotV3(f *testing.F) {
	w := New(0)
	if err := w.RegisterSpec(spec.Phylogenomics()); err != nil {
		f.Fatal(err)
	}
	if err := w.LoadRun(run.Figure2()); err != nil {
		f.Fatal(err)
	}
	var v3 bytes.Buffer
	if err := w.SaveV3(&v3); err != nil {
		f.Fatal(err)
	}
	good := v3.Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:v3HeaderSize])
	f.Add([]byte("ZOOM\x03"))
	f.Add([]byte{})
	for _, stride := range []int{7, 131} {
		corrupt := append([]byte(nil), good...)
		for i := 5; i < len(corrupt); i += stride {
			corrupt[i] ^= 0x55
		}
		f.Add(corrupt)
	}
	// A forged block with every checksum over it recomputed starts the
	// fuzzer past the checksums: d1's only reader rewritten from S1 to S2,
	// whose inputs do not list it.
	tab := run.Figure2().Tables()
	conStep := 32 + 8*len(tab.Finals) + 4*(len(tab.StepOff)+len(tab.ModuleOff)+len(tab.DataOff)+len(tab.Producer)+
		len(tab.InOff)+len(tab.OutOff)+len(tab.ConOff)+len(tab.InData)+len(tab.OutData))
	forged := resealBlock(good, 0, func(block []byte) {
		binary.LittleEndian.PutUint32(block[conStep+4*int(tab.ConOff[0]):], 1)
	})
	if back, err := openV3Image(forged, LoadOptions{}); err != nil {
		f.Fatal(err)
	} else if _, err := back.Run("fig2"); !errors.Is(err, run.ErrBadArena) {
		f.Fatalf("forged block: %v, want the rows' cross-check to reject it", err)
	}
	f.Add(forged)
	f.Fuzz(func(t *testing.T, data []byte) {
		back, err := openV3Image(data, LoadOptions{})
		if err != nil {
			return
		}
		ok := true
		for _, id := range back.RunIDs() {
			r, err := back.Run(id)
			if err != nil {
				ok = false
				continue
			}
			if err := r.Validate(); err != nil {
				t.Fatalf("materialized invalid run %q: %v", id, err)
			}
		}
		if ok {
			if err := back.SaveV3(new(bytes.Buffer)); err != nil {
				t.Fatalf("re-save v3: %v", err)
			}
		}
	})
}

// resealBlock returns a copy of a v3 image with run i's block (in id order)
// edited by forge and every checksum over it recomputed: the block's in the
// run directory, the run directory's in the section directory, and the
// section directory's in the header.
func resealBlock(img []byte, i int, forge func(block []byte)) []byte {
	img = bytes.Clone(img)
	le := binary.LittleEndian
	dirOff, nSec := le.Uint64(img[16:]), uint64(le.Uint32(img[8:]))
	dir := img[dirOff : dirOff+nSec*v3DirEntrySize]
	var runDirEntry []byte
	var runDataOff uint64
	for k := uint64(0); k < nSec; k++ {
		e := dir[k*v3DirEntrySize:]
		switch le.Uint32(e) {
		case v3SecRunDir:
			runDirEntry = e
		case v3SecRunData:
			runDataOff = le.Uint64(e[8:])
		}
	}
	rdOff := le.Uint64(runDirEntry[8:])
	runDir := img[rdOff : rdOff+le.Uint64(runDirEntry[16:])]
	rec := runDir[8+i*v3RunRecSize:]
	start := runDataOff + le.Uint64(rec[0:])
	block := img[start : start+le.Uint64(rec[8:])]
	forge(block)
	le.PutUint64(rec[16:], xxh.Sum64(block))
	le.PutUint64(runDirEntry[24:], xxh.Sum64(runDir))
	le.PutUint64(img[32:], xxh.Sum64(dir))
	return img
}
