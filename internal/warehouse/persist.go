package warehouse

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/spec"
)

// Snapshot persistence. Two on-disk formats share one loading entry point:
//
//   - v1 is a single JSON document (Save) — human-readable, diff-able, the
//     interchange format;
//   - v3 is the page-aligned zero-copy image (SaveV3, persist_v3.go) that
//     OpenV3 serves straight from a memory map.
//
// Load dispatches on the first bytes ('{' for JSON, "ZOOM\x03" for v3).
// Either way, loading rebuilds every run through the same validated
// construction path as live loads, so a corrupted snapshot cannot produce
// an inconsistent warehouse. The v2 uvarint-frame format that used to sit
// between the two is retired: its files are recognized and refused with
// ErrSnapshotV2Retired.

// snapMagic opens every binary snapshot; the version byte follows it.
var snapMagic = [4]byte{'Z', 'O', 'O', 'M'}

const (
	snapVersion2 = 2 // retired
	snapVersion3 = 3
)

// ErrSnapshotV2Retired is returned when a snapshot carries the v2 binary
// header. No current build reads or writes v2.
var ErrSnapshotV2Retired = errors.New("warehouse: v2 snapshot format is retired: " +
	"rewrite the file with `zoom snapshot convert -format v3` (or json) from a build that still reads v2")

// checkBinaryHeader validates the five header bytes every binary snapshot
// starts with (magic + version) and accepts only v3.
func checkBinaryHeader(hdr []byte) error {
	if [4]byte(hdr[:4]) != snapMagic {
		return fmt.Errorf("warehouse: bad snapshot magic %q", hdr[:4])
	}
	switch hdr[4] {
	case snapVersion3:
		return nil
	case snapVersion2:
		return ErrSnapshotV2Retired
	}
	return fmt.Errorf("warehouse: unsupported snapshot version %d", hdr[4])
}

type snapshot struct {
	Specs []json.RawMessage `json:"specs"`
	Views []viewSnapshot    `json:"views"`
	Runs  []runSnapshot     `json:"runs"`
}

type viewSnapshot struct {
	Spec   string              `json:"spec"`
	Name   string              `json:"name"`
	Blocks map[string][]string `json:"blocks"`
}

type runSnapshot struct {
	ID    string                       `json:"id"`
	Spec  string                       `json:"spec"`
	Steps []run.Step                   `json:"steps"`
	Flows []run.Flow                   `json:"flows"`
	Meta  map[string]map[string]string `json:"meta,omitempty"`
}

// Save writes the warehouse contents as JSON (the v1 snapshot format).
func (w *Warehouse) Save(out io.Writer) error {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if w.closed {
		return ErrClosed
	}
	for id, rt := range w.runs {
		if err := w.resolveLocked(rt); err != nil {
			return fmt.Errorf("warehouse: save run %q: %w", id, err)
		}
	}
	var snap snapshot
	var err error
	if snap.Specs, snap.Views, err = w.catalogLocked(); err != nil {
		return err
	}
	runIDs := make([]string, 0, len(w.runs))
	for id := range w.runs {
		runIDs = append(runIDs, id)
	}
	sort.Strings(runIDs)
	for _, id := range runIDs {
		r := w.runs[id].run
		rs := runSnapshot{ID: id, Spec: r.SpecName(), Steps: r.Steps(), Flows: r.Flows()}
		for _, d := range r.AnnotatedInputs() {
			if rs.Meta == nil {
				rs.Meta = make(map[string]map[string]string)
			}
			rs.Meta[d] = r.InputMeta(d)
		}
		snap.Runs = append(snap.Runs, rs)
	}
	bw := bufio.NewWriterSize(out, 1<<16)
	if err := json.NewEncoder(bw).Encode(&snap); err != nil {
		return fmt.Errorf("warehouse: encode snapshot: %w", err)
	}
	return bw.Flush()
}

// catalogLocked encodes the catalog both snapshot formats carry: the
// specifications sorted by name, and each one's views sorted by view name.
// Either list is nil when empty (v1 writes null, v3 writes []). Callers
// hold w.mu.
func (w *Warehouse) catalogLocked() ([]json.RawMessage, []viewSnapshot, error) {
	specNames := make([]string, 0, len(w.specs))
	for n := range w.specs {
		specNames = append(specNames, n)
	}
	sort.Strings(specNames)
	var specs []json.RawMessage
	var views []viewSnapshot
	for _, n := range specNames {
		raw, err := json.Marshal(w.specs[n])
		if err != nil {
			return nil, nil, fmt.Errorf("warehouse: encode spec %q: %w", n, err)
		}
		specs = append(specs, raw)
		viewNames := make([]string, 0, len(w.views[n]))
		for vn := range w.views[n] {
			viewNames = append(viewNames, vn)
		}
		sort.Strings(viewNames)
		for _, vn := range viewNames {
			views = append(views, viewSnapshot{Spec: n, Name: vn, Blocks: w.views[n][vn].Blocks()})
		}
	}
	return specs, views, nil
}

// registerCatalog decodes a snapshot's catalog, in file order, into w: the
// specifications first, then the views over them.
func (w *Warehouse) registerCatalog(specs []json.RawMessage, views []viewSnapshot) error {
	for i, raw := range specs {
		s, err := spec.Decode(raw)
		if err != nil {
			return fmt.Errorf("warehouse: snapshot spec %d: %w", i, err)
		}
		if err := w.RegisterSpec(s); err != nil {
			return err
		}
	}
	for _, vs := range views {
		s, err := w.Spec(vs.Spec)
		if err != nil {
			return err
		}
		v, err := core.NewUserView(s, vs.Blocks)
		if err != nil {
			return fmt.Errorf("warehouse: snapshot view %q: %w", vs.Name, err)
		}
		if err := w.RegisterView(vs.Name, v); err != nil {
			return err
		}
	}
	return nil
}

// LoadOptions tune snapshot loading.
type LoadOptions struct {
	// Metrics, when non-nil, is attached to the loaded warehouse, and the
	// load itself is recorded there (ingest.snapshot_load_ns plus the
	// loaded run count under ingest.runs_loaded).
	Metrics *obs.Registry
	// Progress, when non-nil, is called as runs finish loading: first with
	// (0, total), then with the running count after each run, all on the
	// loading goroutine; keep the callback fast. A v3 open calls it once
	// with (total, total), since there is no load phase.
	Progress func(loaded, total int)
}

// Load reads a snapshot produced by Save or SaveV3 into an empty warehouse,
// auto-detecting the format, with the default load options.
func Load(in io.Reader, cacheSize int) (*Warehouse, error) {
	return LoadWith(in, cacheSize, LoadOptions{})
}

// LoadWith is Load with explicit options.
func LoadWith(in io.Reader, cacheSize int, opts LoadOptions) (*Warehouse, error) {
	var start time.Time
	if opts.Metrics != nil {
		start = time.Now()
	}
	br := bufio.NewReaderSize(in, 1<<16)
	head, err := br.Peek(1)
	if err != nil {
		return nil, fmt.Errorf("warehouse: decode snapshot: %w", err)
	}
	var w *Warehouse
	if head[0] == '{' {
		w, err = loadJSON(br, cacheSize, opts.Progress)
	} else {
		w, err = loadV3Reader(br, cacheSize, opts)
	}
	if err != nil {
		return nil, err
	}
	if opts.Metrics != nil {
		w.AttachMetrics(opts.Metrics)
		w.observeSnapshotLoad(start)
		// No registry was attached while the runs went in, so none was
		// counted: credit them here.
		if m := w.obs.Load(); m != nil {
			m.runsLoaded.Add(int64(w.NumRuns()))
		}
	}
	return w, nil
}

// loadJSON restores a v1 (JSON) snapshot: the document is decoded in one
// piece, then its runs are rebuilt and loaded one by one, in file order, so
// the first bad run is the one an error names.
func loadJSON(in io.Reader, cacheSize int, progress func(loaded, total int)) (*Warehouse, error) {
	var snap snapshot
	if err := json.NewDecoder(in).Decode(&snap); err != nil {
		return nil, fmt.Errorf("warehouse: decode snapshot: %w", err)
	}
	w := New(cacheSize)
	if err := w.registerCatalog(snap.Specs, snap.Views); err != nil {
		return nil, err
	}
	n := len(snap.Runs)
	if progress != nil {
		progress(0, n)
	}
	for i := range snap.Runs {
		r, err := reconstructSnapshotRun(&snap.Runs[i])
		if err == nil {
			err = w.LoadRun(r)
		}
		if err != nil {
			return nil, err
		}
		if progress != nil {
			progress(i+1, n)
		}
	}
	return w, nil
}

// reconstructSnapshotRun rebuilds one v1 run record through a run.Builder,
// which checks it call by call as it would a live run's.
func reconstructSnapshotRun(rs *runSnapshot) (*run.Run, error) {
	r, err := buildSnapshotRun(rs)
	if err != nil {
		return nil, fmt.Errorf("warehouse: snapshot run %q: %w", rs.ID, err)
	}
	return r, nil
}

func buildSnapshotRun(rs *runSnapshot) (*run.Run, error) {
	b := run.NewBuilder(rs.ID, rs.Spec)
	for _, st := range rs.Steps {
		if err := b.AddStep(st.ID, st.Module); err != nil {
			return nil, err
		}
	}
	for _, f := range rs.Flows {
		if err := b.AddFlow(f.From, f.To, f.Data); err != nil {
			return nil, err
		}
	}
	for d, m := range rs.Meta {
		if err := b.AnnotateInput(d, m); err != nil {
			return nil, err
		}
	}
	return b.Build()
}
