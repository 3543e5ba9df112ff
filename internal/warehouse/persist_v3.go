package warehouse

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/bitset"
	"repro/internal/mmapfile"
	"repro/internal/run"
	"repro/internal/xxh"
)

// The v3 snapshot format: the warehouse in its in-memory form, page-aligned
// and pointer-free, so a file can be memory-mapped and served without
// copying. v3 is not a serialization to decode: it *is* the compact index —
// the CSR adjacency, interning tables and finals bitset are stored
// little-endian at their natural alignment, and OpenV3 aliases them straight
// out of the mapping with unsafe.Slice. Opening costs the header, the
// section directory, the JSON spec/view islands and the run directory —
// O(catalog), not O(warehouse); each run materializes lazily on first query,
// which costs the block's checksum and invariant checks and adopts the
// tables where they lie.
//
// File layout (all integers little-endian):
//
//	header     64 bytes
//	  [0:4)    magic "ZOOM"
//	  [4]      version byte 3
//	  [5:8)    zero
//	  [8:12)   u32 section count
//	  [12:16)  zero
//	  [16:24)  u64 directory offset (currently 64)
//	  [24:32)  u64 file size (must equal the real size — truncation check)
//	  [32:40)  u64 xxh64 of the directory bytes
//	  [40:64)  zero (reserved)
//	directory  count × 32-byte entries
//	  u32 kind, u32 reserved, u64 offset, u64 length, u64 xxh64
//	sections   each page-aligned (4096)
//
// Section kinds: 1 = specs (JSON array of spec documents), 2 = views (JSON
// array of view snapshots), 3 = run directory, 4 = run data. The spec,
// view and run-directory sections are checksummed eagerly at open; the run
// data section's directory hash is zero and integrity is per run block
// (each block's xxh64 lives in its run-directory record and is verified on
// first materialization), which is what keeps open time independent of
// warehouse size.
//
// Run directory section:
//
//	u64 run count
//	count × 64-byte records
//	  u64 block offset (relative to the run-data section), u64 block length
//	  u64 block xxh64
//	  u32 idOff, u32 idLen, u32 specOff, u32 specLen   (into the arena below)
//	  u32 steps, u32 data, u32 edges                   (directory counts)
//	  12 zero bytes
//	string arena (run ids and spec names)
//
// Run block (8-aligned within the section; all arrays at natural
// alignment, which the 32-byte header and the field order preserve):
//
//	header     u32 nSteps, nData, nFlows, flowInts, metaLen, arenaLen, 0, 0
//	finals     ⌈nData/64⌉ u64 bitset words
//	stepNameOff, stepModOff   (nSteps+1) u32 each — offsets into the arena
//	dataNameOff               (nData+1) u32
//	producer   nData i32
//	inOff, outOff             (nSteps+1) i32 each  — CSR row offsets
//	conOff                    (nData+1) i32
//	inData, outData, conStep  CSR values
//	flows      flowInts i32: per flow  from, to, count, data indexes
//	arena      arenaLen bytes (step ids, modules, data ids, concatenated)
//	meta       metaLen bytes, JSON [{"d": idx, "kv": {...}}] (sorted by idx)
//
// The flow section is what run.Index.EachFlow derives from the CSR rows: the
// writer derives it; the reader bounds-checks it against flowInts and the
// block checksum covers it, but it is never decoded.
//
// At materialization the integer arrays, name offsets included, are adopted
// by the run's index *without copying* (they alias the mapping); the arena
// is copied out once, so names and query results never dangle after Close.
// A checksummed-but-forged block cannot cause memory unsafety: it is
// bounds-checked here and invariant-checked by run.ReconstructArena before
// any aliased slice is indexed.
const (
	v3HeaderSize   = 64
	v3DirEntrySize = 32
	v3RunRecSize   = 64
	v3SectionAlign = 4096
	v3BlockAlign   = 8

	v3SecSpecs   = 1
	v3SecViews   = 2
	v3SecRunDir  = 3
	v3SecRunData = 4

	// v3MaxSections/v3MaxRuns bound the catalog structures decoded eagerly,
	// so a forged header cannot make open allocate unbounded memory.
	v3MaxSections = 64
	v3MaxRuns     = 1 << 28
)

// snapshotInfo records how a warehouse came off disk — the Stats snapshot
// section and the Close lifecycle hang off it.
type snapshotInfo struct {
	version int
	mapped  bool
	bytes   int
	src     io.Closer // the mapping (nil when opened from a heap buffer)
}

// v3RunRec is one decoded run-directory record.
type v3RunRec struct {
	id, specName       string
	blockOff, blockLen uint64 // absolute offsets into the file image
	blockHash          uint64
	steps, data, edges int
}

// lazyRun defers a v3 run's materialization to first use. once serializes
// the build (any lock holder may trigger it; sync.Once publishes the
// runTables writes to every waiter), err is sticky, and done lets readers
// that do not want to force a build (Stats) check state with acquire
// semantics.
type lazyRun struct {
	once sync.Once
	err  error
	done atomic.Bool
	data []byte
	rec  v3RunRec
}

// SaveV3 writes the warehouse in the v3 zero-copy snapshot format. Every
// lazily-opened run is materialized first (saving is a whole-warehouse
// operation). Output is deterministic: runs, specs and views are sorted, so
// save → open → save is byte-identical.
func (w *Warehouse) SaveV3(out io.Writer) error {
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
	img, err := w.buildV3Locked()
	if err != nil {
		return err
	}
	if _, err := out.Write(img); err != nil {
		return fmt.Errorf("warehouse: write snapshot: %w", err)
	}
	return nil
}

// buildV3Locked assembles the complete v3 image in memory; callers hold
// w.mu and have resolved every run.
func (w *Warehouse) buildV3Locked() ([]byte, error) {
	specDocs, views, err := w.catalogLocked()
	if err != nil {
		return nil, err
	}
	if specDocs == nil {
		specDocs = []json.RawMessage{}
	}
	specsJSON, err := json.Marshal(specDocs)
	if err != nil {
		return nil, fmt.Errorf("warehouse: encode specs: %w", err)
	}
	if views == nil {
		views = []viewSnapshot{}
	}
	viewsJSON, err := json.Marshal(views)
	if err != nil {
		return nil, fmt.Errorf("warehouse: encode views: %w", err)
	}

	runIDs := make([]string, 0, len(w.runs))
	for id := range w.runs {
		runIDs = append(runIDs, id)
	}
	sort.Strings(runIDs)

	// Run data section: 8-aligned blocks, offsets relative to the section.
	type recInfo struct {
		off, length        uint64
		hash               uint64
		steps, data, edges int
	}
	var runData []byte
	recs := make([]recInfo, len(runIDs))
	for i, id := range runIDs {
		for len(runData)%v3BlockAlign != 0 {
			runData = append(runData, 0)
		}
		start := len(runData)
		r := w.runs[id].run
		runData, err = appendRunBlockV3(runData, r)
		if err != nil {
			return nil, fmt.Errorf("warehouse: encode run %q: %w", id, err)
		}
		block := runData[start:]
		le := binary.LittleEndian // the directory repeats the block header's counts
		recs[i] = recInfo{
			off: uint64(start), length: uint64(len(block)), hash: xxh.Sum64(block),
			steps: int(le.Uint32(block[0:])), data: int(le.Uint32(block[4:])), edges: int(le.Uint32(block[8:])),
		}
	}

	// Run directory section.
	var arena []byte
	dir := make([]byte, 8, 8+len(runIDs)*v3RunRecSize)
	binary.LittleEndian.PutUint64(dir, uint64(len(runIDs)))
	for i, id := range runIDs {
		rec := recs[i]
		var rb [v3RunRecSize]byte
		le := binary.LittleEndian
		le.PutUint64(rb[0:], rec.off)
		le.PutUint64(rb[8:], rec.length)
		le.PutUint64(rb[16:], rec.hash)
		le.PutUint32(rb[24:], uint32(len(arena)))
		le.PutUint32(rb[28:], uint32(len(id)))
		arena = append(arena, id...)
		specName := w.runs[id].specName
		le.PutUint32(rb[32:], uint32(len(arena)))
		le.PutUint32(rb[36:], uint32(len(specName)))
		arena = append(arena, specName...)
		le.PutUint32(rb[40:], uint32(rec.steps))
		le.PutUint32(rb[44:], uint32(rec.data))
		le.PutUint32(rb[48:], uint32(rec.edges))
		dir = append(dir, rb[:]...)
	}
	runDir := append(dir, arena...)

	// Assemble: header, directory, then the four page-aligned sections.
	type section struct {
		kind uint32
		body []byte
		hash uint64
		off  uint64
	}
	sections := []section{
		{kind: v3SecSpecs, body: specsJSON, hash: xxh.Sum64(specsJSON)},
		{kind: v3SecViews, body: viewsJSON, hash: xxh.Sum64(viewsJSON)},
		{kind: v3SecRunDir, body: runDir, hash: xxh.Sum64(runDir)},
		{kind: v3SecRunData, body: runData, hash: 0}, // integrity is per block
	}
	off := uint64(v3HeaderSize + len(sections)*v3DirEntrySize)
	for i := range sections {
		off = alignUp(off, v3SectionAlign)
		sections[i].off = off
		off += uint64(len(sections[i].body))
	}
	fileSize := off

	dirBytes := make([]byte, 0, len(sections)*v3DirEntrySize)
	for _, s := range sections {
		var eb [v3DirEntrySize]byte
		le := binary.LittleEndian
		le.PutUint32(eb[0:], s.kind)
		le.PutUint64(eb[8:], s.off)
		le.PutUint64(eb[16:], uint64(len(s.body)))
		le.PutUint64(eb[24:], s.hash)
		dirBytes = append(dirBytes, eb[:]...)
	}

	img := make([]byte, fileSize)
	copy(img[0:4], snapMagic[:])
	img[4] = snapVersion3
	le := binary.LittleEndian
	le.PutUint32(img[8:], uint32(len(sections)))
	le.PutUint64(img[16:], v3HeaderSize)
	le.PutUint64(img[24:], fileSize)
	le.PutUint64(img[32:], xxh.Sum64(dirBytes))
	copy(img[v3HeaderSize:], dirBytes)
	for _, s := range sections {
		copy(img[s.off:], s.body)
	}
	return img, nil
}

// v3MetaEntry is one annotated input in a run block's JSON meta island.
type v3MetaEntry struct {
	D  int32             `json:"d"`
	KV map[string]string `json:"kv"`
}

// appendRunBlockV3 encodes one materialized run as a v3 block, appending to
// dst (which is 8-aligned on entry). Every table but the flow stream is the
// run's own.
func appendRunBlockV3(dst []byte, r *run.Run) ([]byte, error) {
	t := r.Tables()

	// Flow stream, ascending by (from, to) node code as the index derives it.
	var flows []int32
	nFlows := 0
	r.Index().EachFlow(func(from, to int32, data []int32) {
		flows = append(flows, from, to, int32(len(data)))
		flows = append(flows, data...)
		nFlows++
	})

	// Meta island.
	var metaJSON []byte
	if len(t.Meta) > 0 {
		entries := make([]v3MetaEntry, 0, len(t.Meta))
		for d, kv := range t.Meta {
			entries = append(entries, v3MetaEntry{D: d, KV: kv})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].D < entries[j].D })
		var err error
		if metaJSON, err = json.Marshal(entries); err != nil {
			return nil, err
		}
	}

	// Emit. Field order keeps every array at its natural alignment given
	// the 8-aligned block start.
	le := binary.LittleEndian
	var hdr [32]byte
	le.PutUint32(hdr[0:], uint32(r.NumSteps()))
	le.PutUint32(hdr[4:], uint32(r.NumData()))
	le.PutUint32(hdr[8:], uint32(nFlows))
	le.PutUint32(hdr[12:], uint32(len(flows)))
	le.PutUint32(hdr[16:], uint32(len(metaJSON)))
	le.PutUint32(hdr[20:], uint32(len(t.Names)))
	dst = append(dst, hdr[:]...)
	for _, w := range t.Finals {
		dst = le.AppendUint64(dst, w)
	}
	for _, tbl := range [][]uint32{t.StepOff, t.ModuleOff, t.DataOff} {
		for _, v := range tbl {
			dst = le.AppendUint32(dst, v)
		}
	}
	for _, tbl := range [][]int32{t.Producer, t.InOff, t.OutOff, t.ConOff, t.InData, t.OutData, t.ConStep, flows} {
		for _, v := range tbl {
			dst = le.AppendUint32(dst, uint32(v))
		}
	}
	dst = append(dst, t.Names...)
	dst = append(dst, metaJSON...)
	return dst, nil
}

// OpenV3 memory-maps a v3 snapshot and returns a queryable warehouse
// without loading it: the catalog (specs, views, run directory) is verified
// and decoded eagerly, run tables materialize lazily on first query, and
// the big integer arrays are served from the mapping for the warehouse's
// lifetime. Call Close when done to release the mapping; cacheSize as in
// New. Only the Metrics load option applies (there is no load phase to
// parallelize — Progress, if set, is told the warehouse is ready
// immediately).
func OpenV3(path string, cacheSize int, opts LoadOptions) (*Warehouse, error) {
	f, err := mmapfile.Open(path)
	if err != nil {
		return nil, fmt.Errorf("warehouse: open snapshot: %w", err)
	}
	w, err := openV3Bytes(f.Bytes(), f.Mapped(), f, cacheSize, opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// loadV3Reader is the generic reader path for a binary snapshot: it checks
// the header, slurps the image into an aligned heap buffer (a reader offers
// no mapping) and serves it through the same open as OpenV3. It keeps
// Load's contract — a snapshot either loads completely or errors — by
// materializing every run now, in id order for deterministic error
// reporting. The lazy O(catalog) path is OpenV3.
func loadV3Reader(br io.Reader, cacheSize int, opts LoadOptions) (*Warehouse, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("warehouse: decode snapshot header: %w", err)
	}
	if err := checkBinaryHeader(hdr[:]); err != nil {
		return nil, err
	}
	rest, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("warehouse: decode snapshot: %w", err)
	}
	buf := alignedBytes(len(hdr) + len(rest))
	copy(buf, hdr[:])
	copy(buf[len(hdr):], rest)
	w, err := openV3Bytes(buf, false, nil, cacheSize, opts)
	if err != nil {
		return nil, err
	}
	for _, id := range w.RunIDs() {
		if _, err := w.Run(id); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// openV3Bytes builds a lazily-served warehouse over a complete v3 file
// image. src (optional) is closed by Warehouse.Close.
func openV3Bytes(data []byte, mapped bool, src io.Closer, cacheSize int, opts LoadOptions) (*Warehouse, error) {
	secs, err := parseV3Catalog(data)
	if err != nil {
		return nil, err
	}

	w := New(cacheSize)
	w.snap = &snapshotInfo{version: snapVersion3, mapped: mapped, bytes: len(data), src: src}

	var specDocs []json.RawMessage
	if err := json.Unmarshal(secs.bodies[v3SecSpecs], &specDocs); err != nil {
		return nil, fmt.Errorf("warehouse: v3 snapshot: decode specs: %w", err)
	}
	var views []viewSnapshot
	if err := json.Unmarshal(secs.bodies[v3SecViews], &views); err != nil {
		return nil, fmt.Errorf("warehouse: v3 snapshot: decode views: %w", err)
	}
	if err := w.registerCatalog(specDocs, views); err != nil {
		return nil, err
	}

	recs, err := parseV3RunDir(secs.bodies[v3SecRunDir], secs.runDataOff, secs.runDataLen)
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if _, err := w.Spec(rec.specName); err != nil {
			return nil, fmt.Errorf("warehouse: v3 snapshot: run %q: %w", rec.id, err)
		}
		if _, dup := w.runs[rec.id]; dup {
			return nil, fmt.Errorf("%w: run %q", ErrDuplicate, rec.id)
		}
		w.runs[rec.id] = &runTables{specName: rec.specName, lazy: &lazyRun{data: data, rec: rec}}
	}

	if opts.Metrics != nil {
		w.AttachMetrics(opts.Metrics)
	}
	if opts.Progress != nil {
		opts.Progress(len(recs), len(recs))
	}
	return w, nil
}

// v3Sections maps section kind to body bytes for the eagerly-read sections,
// plus the bounds of the run-data section (whose body is only touched per
// block, on materialization).
type v3Sections struct {
	bodies                 map[uint32][]byte
	runDataOff, runDataLen uint64
}

// parseV3Catalog verifies the header, the section directory and the eager
// sections' checksums, returning the section table. Every offset is bounds-
// checked against the real file size before it is dereferenced, so a
// truncated or forged file yields an error, never a fault.
func parseV3Catalog(data []byte) (secs v3Sections, err error) {
	size := uint64(len(data))
	if len(data) >= 5 {
		// Before the size check, so a short v2 file is named as v2.
		if err := checkBinaryHeader(data[:5]); err != nil {
			return secs, err
		}
	}
	if len(data) < v3HeaderSize {
		return secs, fmt.Errorf("warehouse: v3 snapshot: file truncated at %d bytes", len(data))
	}
	le := binary.LittleEndian
	nSec := le.Uint32(data[8:])
	dirOff := le.Uint64(data[16:])
	fileSize := le.Uint64(data[24:])
	dirHash := le.Uint64(data[32:])
	if fileSize != size {
		return secs, fmt.Errorf("warehouse: v3 snapshot: header says %d bytes, file has %d (truncated?)", fileSize, size)
	}
	if nSec == 0 || nSec > v3MaxSections {
		return secs, fmt.Errorf("warehouse: v3 snapshot: implausible section count %d", nSec)
	}
	dirLen := uint64(nSec) * v3DirEntrySize
	if dirOff > size || dirLen > size-dirOff {
		return secs, fmt.Errorf("warehouse: v3 snapshot: section directory out of bounds")
	}
	dir := data[dirOff : dirOff+dirLen]
	if h := xxh.Sum64(dir); h != dirHash {
		return secs, fmt.Errorf("warehouse: v3 snapshot: section directory checksum mismatch (%#x != %#x)", h, dirHash)
	}
	secs.bodies = make(map[uint32][]byte, nSec)
	sawRunData := false
	for i := uint32(0); i < nSec; i++ {
		e := dir[i*v3DirEntrySize:]
		kind := le.Uint32(e)
		off := le.Uint64(e[8:])
		length := le.Uint64(e[16:])
		hash := le.Uint64(e[24:])
		if off > size || length > size-off {
			return secs, fmt.Errorf("warehouse: v3 snapshot: section %d out of bounds", kind)
		}
		body := data[off : off+length]
		switch kind {
		case v3SecSpecs, v3SecViews, v3SecRunDir:
			if _, dup := secs.bodies[kind]; dup {
				return secs, fmt.Errorf("warehouse: v3 snapshot: duplicate section %d", kind)
			}
			if h := xxh.Sum64(body); h != hash {
				return secs, fmt.Errorf("warehouse: v3 snapshot: section %d checksum mismatch (%#x != %#x)", kind, h, hash)
			}
			secs.bodies[kind] = body
		case v3SecRunData:
			if sawRunData {
				return secs, fmt.Errorf("warehouse: v3 snapshot: duplicate section %d", kind)
			}
			sawRunData = true
			secs.runDataOff, secs.runDataLen = off, length
		default:
			// Unknown sections are skipped — room for forward-compatible
			// additions without a version bump.
		}
	}
	for _, kind := range []uint32{v3SecSpecs, v3SecViews, v3SecRunDir} {
		if _, ok := secs.bodies[kind]; !ok {
			return secs, fmt.Errorf("warehouse: v3 snapshot: missing section %d", kind)
		}
	}
	if !sawRunData {
		return secs, fmt.Errorf("warehouse: v3 snapshot: missing section %d", v3SecRunData)
	}
	return secs, nil
}

// parseV3RunDir decodes the run directory. Block bounds are validated
// against the run-data section here, once, so materialization can slice
// without re-checking; ids and spec names are copied out of the section
// (they become catalog keys and must survive Close).
func parseV3RunDir(body []byte, runDataOff, runDataLen uint64) ([]v3RunRec, error) {
	if len(body) < 8 {
		return nil, fmt.Errorf("warehouse: v3 snapshot: run directory truncated")
	}
	le := binary.LittleEndian
	n := le.Uint64(body)
	if n > v3MaxRuns {
		return nil, fmt.Errorf("warehouse: v3 snapshot: implausible run count %d", n)
	}
	recBytes := n * v3RunRecSize
	if recBytes > uint64(len(body))-8 {
		return nil, fmt.Errorf("warehouse: v3 snapshot: run directory truncated (%d runs)", n)
	}
	arena := string(body[8+recBytes:])
	recs := make([]v3RunRec, 0, n)
	for i := uint64(0); i < n; i++ {
		rb := body[8+i*v3RunRecSize:]
		rec := v3RunRec{
			blockOff:  le.Uint64(rb[0:]),
			blockLen:  le.Uint64(rb[8:]),
			blockHash: le.Uint64(rb[16:]),
			steps:     int(le.Uint32(rb[40:])),
			data:      int(le.Uint32(rb[44:])),
			edges:     int(le.Uint32(rb[48:])),
		}
		if rec.blockOff > runDataLen || rec.blockLen > runDataLen-rec.blockOff {
			return nil, fmt.Errorf("warehouse: v3 snapshot: run %d block out of bounds", i)
		}
		if (runDataOff+rec.blockOff)%v3BlockAlign != 0 {
			return nil, fmt.Errorf("warehouse: v3 snapshot: run %d block misaligned", i)
		}
		rec.blockOff += runDataOff // absolute from here on
		idOff, idLen := uint64(le.Uint32(rb[24:])), uint64(le.Uint32(rb[28:]))
		spOff, spLen := uint64(le.Uint32(rb[32:])), uint64(le.Uint32(rb[36:]))
		aLen := uint64(len(arena))
		if idOff > aLen || idLen > aLen-idOff || spOff > aLen || spLen > aLen-spOff {
			return nil, fmt.Errorf("warehouse: v3 snapshot: run %d name out of bounds", i)
		}
		rec.id = arena[idOff : idOff+idLen]
		rec.specName = arena[spOff : spOff+spLen]
		if rec.id == "" {
			return nil, fmt.Errorf("warehouse: v3 snapshot: run %d has an empty id", i)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// materialize adopts the block as the run's index, verifying the block
// checksum and every structural invariant first (run.ReconstructArena).
// Called exactly once per lazyRun (through sync.Once); on success it
// publishes the run into rt.
func (lz *lazyRun) materialize(rt *runTables) {
	r, err := decodeRunBlockV3(lz.data, lz.rec)
	if err != nil {
		lz.err = fmt.Errorf("warehouse: v3 snapshot: run %q: %w", lz.rec.id, err)
		return
	}
	if err := r.Validate(); err != nil {
		lz.err = fmt.Errorf("warehouse: v3 snapshot: run %q: %w", lz.rec.id, err)
		return
	}
	rt.run = r
	lz.done.Store(true)
}

// decodeRunBlockV3 decodes one run block into a run whose index aliases the
// block's integer arrays.
func decodeRunBlockV3(data []byte, rec v3RunRec) (*run.Run, error) {
	b := data[rec.blockOff : rec.blockOff+rec.blockLen]
	if h := xxh.Sum64(b); h != rec.blockHash {
		return nil, fmt.Errorf("block checksum mismatch (%#x != %#x)", h, rec.blockHash)
	}
	if len(b) < 32 {
		return nil, fmt.Errorf("block truncated at %d bytes", len(b))
	}
	le := binary.LittleEndian
	nSteps := int(le.Uint32(b[0:]))
	nData := int(le.Uint32(b[4:]))
	nFlows := int(le.Uint32(b[8:])) // the flow section is not decoded
	flowInts := int(le.Uint32(b[12:]))
	metaLen := int(le.Uint32(b[16:]))
	arenaLen := int(le.Uint32(b[20:]))
	if nSteps != rec.steps || nData != rec.data || nFlows != rec.edges {
		return nil, fmt.Errorf("block header disagrees with run directory (%d/%d/%d vs %d/%d/%d)",
			nSteps, nData, nFlows, rec.steps, rec.data, rec.edges)
	}

	cur := &blockCursor{b: b, off: 32}
	finals := cur.u64s((nData + 63) / 64)
	stepNameOff, stepModOff, dataNameOff := cur.u32s(nSteps+1), cur.u32s(nSteps+1), cur.u32s(nData+1)
	producer := cur.i32s(nData)
	inOff, outOff, conOff := cur.i32s(nSteps+1), cur.i32s(nSteps+1), cur.i32s(nData+1)
	inData, outData, conStep := cur.csrVals("inputs", inOff), cur.csrVals("outputs", outOff), cur.csrVals("consumers", conOff)
	cur.i32s(flowInts) // the flow section: derived from the rows, never read
	if cur.err != nil {
		return nil, cur.err
	}
	if cur.off+arenaLen+metaLen > len(b) {
		return nil, fmt.Errorf("block arena out of bounds")
	}
	// One copy: the arena becomes an immutable Go string and every name a
	// substring, so results survive Close (the offset and integer arrays
	// above stay mapping-backed on purpose).
	arena := string(b[cur.off : cur.off+arenaLen])
	metaBytes := b[cur.off+arenaLen : cur.off+arenaLen+metaLen]

	var meta map[int32]map[string]string
	if metaLen > 0 {
		var entries []v3MetaEntry
		if err := json.Unmarshal(metaBytes, &entries); err != nil {
			return nil, fmt.Errorf("decode meta island: %w", err)
		}
		meta = make(map[int32]map[string]string, len(entries))
		for _, e := range entries {
			meta[e.D] = e.KV
		}
	}

	return run.ReconstructArena(rec.id, rec.specName, run.ArenaTables{
		Names: arena, StepOff: stepNameOff, ModuleOff: stepModOff, DataOff: dataNameOff,
		Producer: producer,
		InOff:    inOff, InData: inData,
		OutOff: outOff, OutData: outData,
		ConOff: conOff, ConStep: conStep,
		Finals: bitset.Set(finals),
		Meta:   meta,
	})
}

// blockCursor slices typed little-endian arrays out of a run block without
// copying, bounds- and alignment-checking every step. The zero-copy step —
// unsafe.Slice over the mapping — is safe because (a) the byte range is
// checked against the block first and (b) the pointer's alignment is
// checked at runtime, so even a forged block can only produce an error. The
// first error sticks: every read after it returns nil.
type blockCursor struct {
	b   []byte
	off int
	err error
}

func (c *blockCursor) bytesFor(n, size, align int) unsafe.Pointer {
	switch {
	case c.err != nil || n == 0:
		return nil
	case n < 0 || n > (len(c.b)-c.off)/size:
		c.err = fmt.Errorf("block table out of bounds at offset %d", c.off)
		return nil
	}
	p := unsafe.Pointer(&c.b[c.off])
	if uintptr(p)%uintptr(align) != 0 {
		c.err = fmt.Errorf("block table misaligned at offset %d", c.off)
		return nil
	}
	c.off += n * size
	return p
}

func (c *blockCursor) u64s(n int) []uint64 {
	if p := c.bytesFor(n, 8, 8); p != nil {
		return unsafe.Slice((*uint64)(p), n)
	}
	return nil
}

func (c *blockCursor) u32s(n int) []uint32 {
	if p := c.bytesFor(n, 4, 4); p != nil {
		return unsafe.Slice((*uint32)(p), n)
	}
	return nil
}

func (c *blockCursor) i32s(n int) []int32 {
	if p := c.bytesFor(n, 4, 4); p != nil {
		return unsafe.Slice((*int32)(p), n)
	}
	return nil
}

// csrVals reads the value array belonging to a CSR offset table (its length
// is the table's last entry; ReconstructArena re-checks monotonicity).
func (c *blockCursor) csrVals(what string, off []int32) []int32 {
	switch {
	case c.err != nil:
		return nil
	case len(off) == 0 || off[len(off)-1] < 0:
		c.err = fmt.Errorf("%s CSR has no length", what)
		return nil
	}
	vals := c.i32s(int(off[len(off)-1]))
	if c.err != nil {
		c.err = fmt.Errorf("%s CSR: %w", what, c.err)
	}
	return vals
}

// alignUp rounds off up to the next multiple of align (a power of two).
func alignUp(off uint64, align uint64) uint64 {
	return (off + align - 1) &^ (align - 1)
}

// alignedBytes allocates n bytes with 8-byte alignment guaranteed (a plain
// make([]byte, n) may be byte-aligned for tiny sizes), so a heap-loaded v3
// image can use the same unsafe.Slice decode path as a mapping.
func alignedBytes(n int) []byte {
	if n == 0 {
		return nil
	}
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
}
