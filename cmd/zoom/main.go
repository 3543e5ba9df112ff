// Command zoom is the command-line face of the ZOOM*UserViews reproduction:
// it validates and renders workflow specifications, builds user views with
// RelevUserViewBuilder, loads runs (or raw workflow logs) into a provenance
// warehouse snapshot, and answers provenance queries through a chosen view.
//
// Every command that reads a snapshot opens it the way its header says: a
// v3 file is memory-mapped and its runs materialize on first touch, a JSON
// file is decoded and its runs loaded one by one.
//
// Subcommands:
//
//	zoom example [-warehouse wh.json]     walk through the paper's Figures 1-3
//	zoom serve   -warehouse wh.json [-addr :8080] [-slow 10ms] [-drain 5s] [-expvar zoom]
//	zoom spec    -file spec.json [-dot]   validate / render a specification
//	zoom view    -file spec.json -relevant M2,M3,M7 [-dot]
//	zoom load    -warehouse wh.json -file spec.json [-log run.jsonl -run id] [-format json|v3|keep]
//	zoom snapshot convert -in old.snap -out new.snap [-format v3]   (-out may be -in: rewrite in place)
//	zoom snapshot shard -in wh.v3 -n 4 [-out prefix] [-format keep]
//	zoom router  -workers http://h1:8081,http://h2:8082 [-addr :8090] [-health-interval 2s] [-hedge 0] [-cache 4096] [-slow 10ms] [-drain 5s]
//	zoom query   -warehouse wh.json -run id -data d447[,d448,...] [-relevant ...] [-mode deep|immediate|derived] [-dot] [-trace]
//	zoom runs    -warehouse wh.json       list warehouse contents
//	zoom stats   -warehouse wh.json [-json]  warehouse statistics and metrics
//	zoom stats   -cluster http://router:8090 [-json]  aggregated cluster statistics via a router
//	zoom ask     -warehouse wh.json -run id -q "deep(d447)" [-relevant ...]
//	zoom compare -warehouse wh.json -a run1 -b run2
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/zoom"
	zoomclient "repro/zoom/client"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "example":
		err = cmdExample(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "router":
		err = cmdRouter(os.Args[2:])
	case "spec":
		err = cmdSpec(os.Args[2:])
	case "view":
		err = cmdView(os.Args[2:])
	case "load":
		err = cmdLoad(os.Args[2:])
	case "snapshot":
		err = cmdSnapshot(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "runs":
		err = cmdRuns(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "ask":
		err = cmdAsk(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "zoom: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "zoom:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: zoom <example|spec|view|load|snapshot|query|ask|compare|runs|stats|serve|router> [flags]
run "zoom <subcommand> -h" for per-command flags
canned query forms for "ask": `+strings.Join(zoom.QueryForms(), ", "))
}

// cmdSnapshot manages snapshot files: convert rewrites a v1 or v3
// snapshot into another format; shard splits one into N shard snapshots
// by the cluster's consistent-hash ring.
func cmdSnapshot(args []string) error {
	if len(args) >= 1 && args[0] == "shard" {
		return cmdSnapshotShard(args[1:])
	}
	if len(args) < 1 || args[0] != "convert" {
		return fmt.Errorf(`snapshot: usage: zoom snapshot convert -in old.snap -out new.snap [-format v3]
       zoom snapshot shard -in wh.v3 -n 4 [-out prefix] [-format keep]`)
	}
	fs := flag.NewFlagSet("snapshot convert", flag.ExitOnError)
	in := fs.String("in", "", "snapshot file to read (any format, required)")
	out := fs.String("out", "", "snapshot file to write (required)")
	format := fs.String("format", "v3", "output format: json, v3, or keep (the input's format)")
	_ = fs.Parse(args[1:])
	if *in == "" || *out == "" {
		return fmt.Errorf("snapshot convert: -in and -out are required")
	}
	if err := resolveFormat("snapshot convert", format, *in); err != nil {
		return err
	}
	if _, err := os.Stat(*in); err != nil {
		return fmt.Errorf("snapshot convert: %w", err)
	}
	from := snapshotFormat(*in) // before -out, which may be -in, is written
	sys, err := openSystem(*in, nil, nil)
	if err != nil {
		return err
	}
	defer sys.Close()
	if err := saveSystemFormat(sys, *out, *format); err != nil {
		return err
	}
	fmt.Printf("converted %s (%s) to %s (%s, %d runs)\n",
		*in, from, *out, *format, len(sys.RunIDs()))
	return nil
}

// cmdSnapshotShard splits one snapshot into N shard snapshots using the
// same consistent-hash ring the router routes by: shard k's file holds
// exactly the runs `zoom router` will send to worker k, plus the full
// spec and view catalog, so `router + N×(serve shard-k)` answers every
// query a single node over the original snapshot would.
func cmdSnapshotShard(args []string) error {
	fs := flag.NewFlagSet("snapshot shard", flag.ExitOnError)
	in := fs.String("in", "", "snapshot file to split (any format, required)")
	out := fs.String("out", "", "output prefix; shard k is written to <prefix>.shard<k> (default: -in)")
	n := fs.Int("n", 0, "number of shards (required)")
	format := fs.String("format", "keep", "output format: json, v3, or keep (preserve the input's format)")
	_ = fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("snapshot shard: -in is required")
	}
	if *n < 1 {
		return fmt.Errorf("snapshot shard: -n must be at least 1")
	}
	if err := resolveFormat("snapshot shard", format, *in); err != nil {
		return err
	}
	if *out == "" {
		*out = *in
	}
	if _, err := os.Stat(*in); err != nil {
		return fmt.Errorf("snapshot shard: %w", err)
	}
	ring, err := zoom.NewRing(*n, 0) // the router's ring: default virtual nodes
	if err != nil {
		return err
	}
	sys, err := openSystem(*in, nil, nil)
	if err != nil {
		return err
	}
	defer sys.Close()
	parts := ring.Partition(sys.RunIDs())
	for k, ids := range parts {
		keep := make(map[string]bool, len(ids))
		for _, id := range ids {
			keep[id] = true
		}
		sub, err := sys.Subset(func(id string) bool { return keep[id] })
		if err != nil {
			return fmt.Errorf("snapshot shard %d: %w", k, err)
		}
		path := fmt.Sprintf("%s.shard%d", *out, k)
		if err := saveSystemFormat(sub, path, *format); err != nil {
			return fmt.Errorf("snapshot shard %d: %w", k, err)
		}
		fmt.Printf("shard %d/%d: %s (%s, %d runs)\n", k, *n, path, *format, len(ids))
	}
	return nil
}

// cmdRouter runs the cluster front: a stateless consistent-hash router
// over N `zoom serve` workers. It holds no warehouse — run-addressed
// queries are forwarded to the owning shard, catalog endpoints are
// scatter-gathered — so it starts instantly and restarts freely.
// SIGINT/SIGTERM drain in-flight requests for up to -drain.
func cmdRouter(args []string) error {
	fs := flag.NewFlagSet("router", flag.ExitOnError)
	addr := fs.String("addr", ":8090", "listen address")
	workers := fs.String("workers", "", "worker base URLs in shard order (required; order must match `zoom snapshot shard`). Semicolons separate shards, commas separate replicas within a shard: 'a,b;c,d' is two shards with two replicas each; without a semicolon commas separate single-replica shards")
	healthInterval := fs.Duration("health-interval", 2*time.Second, "worker /readyz polling period")
	hedge := fs.Duration("hedge", 0, "hedge run-addressed requests on the next replica after this delay (0 = off; pick a p99-ish value)")
	cacheEntries := fs.Int("cache", 4096, "response cache entries (0 disables; invalidated when a shard's worker generation changes); an answer is kept only if it and its request fit cache-bytes/cache, 16KiB at the defaults; answers not yet asked twice hold at most a fifth of the entries and, in bytes, a fifth of the entries at the mean size of the answers asked again (at least one share): past that only their keys are kept, and a key asked again admits its answer")
	cacheBytes := fs.Int64("cache-bytes", 0, "response cache total byte bound (0 = 64MiB default); each entry gets at most its fair share, cache-bytes/cache")
	slow := fs.Duration("slow", 10*time.Millisecond, "router slowlog threshold at /debug/slowlog (negative logs every request)")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout")
	_ = fs.Parse(args)
	groups := zoom.ParseWorkers(*workers)
	if len(groups) == 0 {
		return fmt.Errorf("router: -workers is required ('a,b;c,d': semicolons separate shards, commas separate replicas)")
	}
	rt, err := zoom.NewRouter(zoom.NewMetrics(), zoom.RouterConfig{
		Shards:         groups,
		HealthInterval: *healthInterval,
		HedgeDelay:     *hedge,
		CacheEntries:   *cacheEntries,
		CacheBytes:     *cacheBytes,
		SlowThreshold:  *slow,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "zoom router: listening on http://%s, %d shards:\n", ln.Addr(), len(groups))
	for i, g := range groups {
		fmt.Fprintf(os.Stderr, "zoom router:   shard %d -> %s\n", i, strings.Join(g, ", "))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = rt.Serve(ctx, ln, *drain)
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	return err
}

// cmdCompare diffs two runs structurally (reproducibility check).
func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	whPath := fs.String("warehouse", "", "warehouse snapshot file (required)")
	aID := fs.String("a", "", "first run id (required)")
	bID := fs.String("b", "", "second run id (required)")
	_ = fs.Parse(args)
	if *whPath == "" || *aID == "" || *bID == "" {
		return fmt.Errorf("compare: -warehouse, -a and -b are required")
	}
	sys, err := openSystem(*whPath, nil, nil)
	if err != nil {
		return err
	}
	defer sys.Close()
	a, err := sys.Run(*aID)
	if err != nil {
		return err
	}
	b, err := sys.Run(*bID)
	if err != nil {
		return err
	}
	fmt.Println(zoom.CompareRuns(a, b))
	return nil
}

// cmdAsk evaluates one of the prototype's canned query forms.
func cmdAsk(args []string) error {
	fs := flag.NewFlagSet("ask", flag.ExitOnError)
	whPath := fs.String("warehouse", "", "warehouse snapshot file (required)")
	runID := fs.String("run", "", "run id (required)")
	q := fs.String("q", "", `canned query, e.g. "deep(d447)" (required)`)
	relevant := fs.String("relevant", "", "relevant modules for the view (empty = UAdmin)")
	_ = fs.Parse(args)
	if *whPath == "" || *runID == "" || *q == "" {
		return fmt.Errorf("ask: -warehouse, -run and -q are required")
	}
	sys, err := openSystem(*whPath, nil, nil)
	if err != nil {
		return err
	}
	defer sys.Close()
	r, err := sys.Run(*runID)
	if err != nil {
		return err
	}
	s, err := sys.Spec(r.SpecName())
	if err != nil {
		return err
	}
	var v *zoom.UserView
	if *relevant == "" {
		v = zoom.UAdmin(s)
	} else if v, err = zoom.BuildUserView(s, splitList(*relevant)); err != nil {
		return err
	}
	ans, err := sys.Ask(*runID, v, *q)
	if err != nil {
		return err
	}
	fmt.Print(zoom.RenderAnswer(ans))
	return nil
}

// cmdExample walks through the paper's running example end to end. With
// -warehouse it also saves the example system as a snapshot (the Joe and
// Mary views registered by name) — the one-command way to get a warehouse
// that `zoom query` and `zoom serve` can use.
func cmdExample(args []string) error {
	fs := flag.NewFlagSet("example", flag.ExitOnError)
	whPath := fs.String("warehouse", "", "save the example system as a warehouse snapshot")
	_ = fs.Parse(args)
	s := zoom.Phylogenomics()
	r := zoom.PhylogenomicsRun()
	fmt.Printf("specification: %s\n", s)
	fmt.Printf("run:           %s\n\n", r)

	sys := zoom.NewSystem()
	if err := sys.RegisterSpec(s); err != nil {
		return err
	}
	if err := sys.LoadRun(r); err != nil {
		return err
	}
	for _, user := range []struct {
		name     string
		relevant []string
	}{
		{"Joe", zoom.JoeRelevant()},
		{"Mary", zoom.MaryRelevant()},
	} {
		v, err := zoom.BuildUserView(s, user.relevant)
		if err != nil {
			return err
		}
		if err := sys.RegisterView(strings.ToLower(user.name), v); err != nil {
			return err
		}
		fmt.Printf("%s finds %v relevant; RelevUserViewBuilder gives %v (size %d)\n",
			user.name, user.relevant, v, v.Size())
		ex, err := sys.ImmediateProvenance(r.ID(), v, "d413")
		if err != nil {
			return err
		}
		fmt.Printf("  immediate provenance of d413: execution %s of %s, input %s\n",
			ex.ID, ex.Composite, zoom.FormatDataSet(ex.Inputs))
		res, err := sys.DeepProvenance(r.ID(), v, "d447")
		if err != nil {
			return err
		}
		fmt.Printf("  deep provenance of d447: %d executions, %d data objects\n\n",
			res.NumSteps(), res.NumData())
	}
	if *whPath != "" {
		if err := saveSystem(sys, *whPath); err != nil {
			return err
		}
		fmt.Printf("saved warehouse snapshot to %s (views: joe, mary)\n", *whPath)
	}
	return nil
}

// cmdServe runs the HTTP provenance service. The listener comes up first,
// the warehouse loads in the background, and the server answers 503 on
// /readyz and the query API until the load finishes — so orchestrators
// see the process alive immediately and route traffic only once ready.
// SIGINT/SIGTERM drain in-flight requests for up to -drain.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	whPath := fs.String("warehouse", "", "warehouse snapshot file (required)")
	slow := fs.Duration("slow", 10*time.Millisecond, "slow-query log threshold (negative logs every request)")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout")
	expvarName := fs.String("expvar", "zoom", `expvar name for the live metrics snapshot ("" skips /debug/vars publishing)`)
	fs.Bool("mmap", false, "no effect: a v3 snapshot is always served from a memory map, its runs materializing on first query")
	_ = fs.Parse(args)
	if *whPath == "" {
		return fmt.Errorf("serve: -warehouse is required")
	}
	if _, err := os.Stat(*whPath); err != nil {
		return fmt.Errorf("serve: warehouse snapshot: %w", err)
	}
	reg := zoom.NewMetrics()
	// NewServer fails fast on an already-published expvar name — better a
	// startup error than a server whose /debug/vars silently shows some
	// other registry.
	srv, err := zoom.NewServer(reg, zoom.ServerConfig{
		SlowThreshold: *slow,
		ExpvarName:    *expvarName,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "zoom serve: listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Load progress feeds /readyz (JSON run counts) and the serve log — one
	// line per quartile so a long cold start is visibly advancing.
	loggedQuartile := 0
	progress := func(loaded, total int) {
		srv.SetLoadProgress(loaded, total)
		if total == 0 || loaded >= total {
			return
		}
		if q := loaded * 4 / total; q > loggedQuartile {
			loggedQuartile = q
			fmt.Fprintf(os.Stderr, "zoom serve: loading %s: %d/%d runs (%d%%)\n",
				*whPath, loaded, total, q*25)
		}
	}

	loadErr := make(chan error, 1)
	sysc := make(chan *zoom.System, 1)
	go func() {
		sys, err := openSystem(*whPath, reg, progress)
		if err != nil {
			loadErr <- err
			stop() // shut the server down; the error is reported below
			return
		}
		sysc <- sys
		sys.ConnectServer(srv)
		if snap := sys.Stats().Snapshot; snap.Mapped {
			fmt.Fprintf(os.Stderr, "zoom serve: warehouse %s mapped (v%d snapshot, %d runs, %d bytes), ready\n",
				*whPath, snap.Version, snap.RunsTotal, snap.MappedBytes)
			return
		}
		fmt.Fprintf(os.Stderr, "zoom serve: warehouse %s loaded (%d runs), ready\n",
			*whPath, len(sys.RunIDs()))
	}()
	err = srv.Serve(ctx, ln, *drain)
	select {
	case sys := <-sysc:
		// Requests have drained; release the snapshot mapping.
		if cerr := sys.Close(); cerr != nil && err == nil {
			err = cerr
		}
	default:
	}
	select {
	case lerr := <-loadErr:
		return fmt.Errorf("serve: loading %s: %w", *whPath, lerr)
	default:
	}
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	return err
}

func readSpec(path string) (*zoom.Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return zoom.DecodeSpec(data)
}

func cmdSpec(args []string) error {
	fs := flag.NewFlagSet("spec", flag.ExitOnError)
	file := fs.String("file", "", "specification JSON file (required)")
	asDot := fs.Bool("dot", false, "emit Graphviz DOT instead of a summary")
	asGraphML := fs.Bool("graphml", false, "emit GraphML instead of a summary")
	_ = fs.Parse(args)
	if *file == "" {
		return fmt.Errorf("spec: -file is required")
	}
	s, err := readSpec(*file)
	if err != nil {
		return err
	}
	if *asDot {
		fmt.Print(zoom.SpecDOT(s))
		return nil
	}
	if *asGraphML {
		fmt.Print(zoom.SpecGraphML(s))
		return nil
	}
	fmt.Printf("%s\nscientific modules: %v\nloops: %v\n",
		s, s.ScientificModules(), !s.IsAcyclic())
	return nil
}

func cmdView(args []string) error {
	fs := flag.NewFlagSet("view", flag.ExitOnError)
	file := fs.String("file", "", "specification JSON file (required)")
	relevant := fs.String("relevant", "", "comma-separated relevant modules")
	asDot := fs.Bool("dot", false, "emit Graphviz DOT of the induced view")
	_ = fs.Parse(args)
	if *file == "" {
		return fmt.Errorf("view: -file is required")
	}
	s, err := readSpec(*file)
	if err != nil {
		return err
	}
	rel := splitList(*relevant)
	v, err := zoom.BuildUserView(s, rel)
	if err != nil {
		return err
	}
	if err := zoom.CheckView(v, rel); err != nil {
		return fmt.Errorf("internal: builder output fails properties: %w", err)
	}
	if *asDot {
		fmt.Print(zoom.ViewDOT("view", v))
		return nil
	}
	fmt.Printf("user view (size %d):\n", v.Size())
	for _, c := range v.Composites() {
		fmt.Printf("  %-10s = %v\n", c, v.Members(c))
	}
	return nil
}

// openSystem opens a warehouse snapshot the way its header says. A v3 file
// is memory-mapped and its runs materialize on first touch
// (zoom.OpenSnapshot); anything else goes through the v1 load, which
// reads JSON and refuses a retired or unknown binary header with the
// warehouse's own error. A missing file is an empty system. A non-nil reg
// is attached (a load is recorded there too) and a non-nil progress is told
// how the load advances. Close the system when done with it.
func openSystem(path string, reg *zoom.Metrics, progress func(loaded, total int)) (*zoom.System, error) {
	opts := zoom.LoadOptions{Metrics: reg, Progress: progress}
	if snapshotFormat(path) == "v3" {
		return zoom.OpenSnapshot(path, opts)
	}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			sys := zoom.NewSystem()
			if reg != nil {
				sys.AttachMetrics(reg)
			}
			return sys, nil
		}
		return nil, err
	}
	defer f.Close()
	return zoom.LoadSystemWith(f, opts)
}

// runsOf touches every run of sys, in id order, so that what is reported
// next covers the whole warehouse whether it was loaded or mapped.
func runsOf(sys *zoom.System) ([]*zoom.Run, error) {
	var runs []*zoom.Run
	for _, id := range sys.RunIDs() {
		r, err := sys.Run(id)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// snapshotFormat sniffs an existing snapshot file's format ("json" or
// "v3") so re-saving can keep the format it found. A missing, unreadable or
// too-short file defaults to "json", the format of a new warehouse. A file
// with the binary magic that is not v3 is never taken for JSON: it reports
// "v2 (retired)" or "unknown", neither of which can be written, and loading
// it returns the warehouse's own error for that header.
func snapshotFormat(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return "json"
	}
	defer f.Close()
	var head [5]byte
	if _, err := io.ReadFull(f, head[:]); err != nil || string(head[:4]) != "ZOOM" {
		return "json"
	}
	switch head[4] {
	case 3:
		return "v3"
	case 2:
		return "v2 (retired)"
	}
	return "unknown"
}

// resolveFormat checks a -format value in place: json and v3 stand, and
// keep becomes the format of the existing file at path (snapshotFormat).
func resolveFormat(cmd string, format *string, path string) error {
	switch *format {
	case "json", "v3":
		return nil
	case "keep":
		*format = snapshotFormat(path)
		return nil
	}
	return fmt.Errorf("%s: unknown -format %q (want json, v3 or keep)", cmd, *format)
}

func saveSystem(sys *zoom.System, path string) error {
	return saveSystemFormat(sys, path, "json")
}

// saveSystemFormat writes a snapshot atomically: the bytes go to a
// temporary file in the destination directory, which is fsynced and then
// renamed over the target. A failed save — encoding error, full disk,
// closed system — leaves an existing snapshot untouched and no temp file
// behind.
func saveSystemFormat(sys *zoom.System, path, format string) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	switch format {
	case "json":
		err = sys.Save(f)
	case "v3":
		err = sys.SaveV3(f)
	default:
		err = fmt.Errorf("cannot write snapshot format %q", format)
	}
	if err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func cmdLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	whPath := fs.String("warehouse", "", "warehouse snapshot file (created if absent)")
	file := fs.String("file", "", "specification JSON to register")
	logPath := fs.String("log", "", "workflow log (JSON lines) to ingest")
	runID := fs.String("run", "", "run id for the ingested log")
	specName := fs.String("spec", "", "spec name the log executes (default: the -file spec)")
	format := fs.String("format", "keep", "snapshot format to write: json, v3, or keep (preserve the existing file's format)")
	_ = fs.Parse(args)
	if *whPath == "" {
		return fmt.Errorf("load: -warehouse is required")
	}
	if err := resolveFormat("load", format, *whPath); err != nil {
		return err
	}
	sys, err := openSystem(*whPath, nil, nil)
	if err != nil {
		return err
	}
	defer sys.Close()
	if *file != "" {
		s, err := readSpec(*file)
		if err != nil {
			return err
		}
		if err := sys.RegisterSpec(s); err != nil {
			return err
		}
		if *specName == "" {
			*specName = s.Name()
		}
		fmt.Printf("registered %s\n", s)
	}
	if *logPath != "" {
		if *runID == "" || *specName == "" {
			return fmt.Errorf("load: -run and -spec are required with -log")
		}
		f, err := os.Open(*logPath)
		if err != nil {
			return err
		}
		n, err := sys.LoadLogReader(*runID, *specName, f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("ingested %d events as run %q\n", n, *runID)
	}
	return saveSystemFormat(sys, *whPath, *format)
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	whPath := fs.String("warehouse", "", "warehouse snapshot file (required)")
	runID := fs.String("run", "", "run id (required)")
	data := fs.String("data", "", "data object id, or a comma-separated list for a batch (required)")
	relevant := fs.String("relevant", "", "relevant modules for the view (empty = UAdmin)")
	mode := fs.String("mode", "deep", "deep | immediate | derived")
	asDot := fs.Bool("dot", false, "emit Graphviz DOT of the provenance graph")
	asProv := fs.Bool("prov", false, "emit W3C PROV-JSON (deep mode only)")
	stats := fs.Bool("stats", false, "print warehouse statistics (catalog, cache, compact index, memos) after answering")
	trace := fs.Bool("trace", false, "print the span tree of a cold query, then of a warm re-query (deep mode, single -data)")
	_ = fs.Parse(args)
	if *whPath == "" || *runID == "" || *data == "" {
		return fmt.Errorf("query: -warehouse, -run and -data are required")
	}
	sys, err := openSystem(*whPath, nil, nil)
	if err != nil {
		return err
	}
	defer sys.Close()
	r, err := sys.Run(*runID)
	if err != nil {
		return err
	}
	s, err := sys.Spec(r.SpecName())
	if err != nil {
		return err
	}
	var v *zoom.UserView
	if *relevant == "" {
		v = zoom.UAdmin(s)
	} else if v, err = zoom.BuildUserView(s, splitList(*relevant)); err != nil {
		return err
	}
	if ids := splitList(*data); len(ids) > 1 {
		if *mode != "deep" {
			return fmt.Errorf("query: multiple -data ids require -mode deep")
		}
		if *asDot || *asProv || *trace {
			return fmt.Errorf("query: -dot/-prov/-trace need a single -data id")
		}
		results, err := sys.DeepProvenanceBatch(context.Background(), *runID, v, ids)
		if err != nil {
			return err
		}
		for i, res := range results {
			fmt.Printf("deep provenance of %s: %d executions, %d data objects\n",
				ids[i], res.NumSteps(), res.NumData())
		}
		cs := sys.CacheCounters()
		fmt.Printf("batch of %d answered: closure cache %d hits / %d misses\n", len(ids), cs.Hits, cs.Misses)
		if *stats {
			return printStats(sys)
		}
		return nil
	}
	switch *mode {
	case "deep":
		if *trace {
			// Cold then warm: the first query computes the UAdmin closure
			// (the closure cache does not persist, so this is the cold
			// path), the second re-serves it from the cache — the paper's
			// view-switch cost. Each tree goes to stderr so stdout stays
			// exactly the query answer (-prov output remains valid JSON,
			// -dot valid DOT) under -trace.
			for _, pass := range []string{"cold", "warm"} {
				tr := zoom.NewTrace("query")
				if _, err := sys.DeepProvenanceCtx(tr.Context(context.Background()), *runID, v, *data); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "%s:\n", pass)
				writeSpanTree(os.Stderr, tr.Finish(), 1)
			}
		}
		res, err := sys.DeepProvenance(*runID, v, *data)
		if err != nil {
			return err
		}
		switch {
		case *asProv:
			out, err := zoom.PROVJSON(res)
			if err != nil {
				return err
			}
			fmt.Println(string(out))
		case *asDot:
			fmt.Print(zoom.ProvenanceDOT(res))
		default:
			fmt.Print(zoom.ProvenanceText(res))
		}
	case "immediate":
		ex, err := sys.ImmediateProvenance(*runID, v, *data)
		if err != nil {
			return err
		}
		if ex == nil {
			fmt.Printf("%s is user/workflow input; provenance is the recorded metadata\n", *data)
			return nil
		}
		fmt.Printf("produced by execution %s of %s (steps %v) from %s\n",
			ex.ID, ex.Composite, ex.Steps, zoom.FormatDataSet(ex.Inputs))
	case "derived":
		res, err := sys.DeepDerivation(*runID, v, *data)
		if err != nil {
			return err
		}
		fmt.Printf("derived from %s: %d executions, data %s\n",
			*data, res.NumSteps(), zoom.FormatDataSet(res.Data))
	default:
		return fmt.Errorf("query: unknown -mode %q", *mode)
	}
	if *stats {
		return printStats(sys)
	}
	return nil
}

// writeSpanTree prints a finished span tree one span a line — name,
// duration, then the tags in key order — indented two spaces per level,
// starting at depth. These are the spans a served `?trace=1` returns in
// its X-Zoom-Trace header.
func writeSpanTree(w io.Writer, n zoom.SpanNode, depth int) {
	fmt.Fprintf(w, "%s%s %s", strings.Repeat("  ", depth), n.Name, time.Duration(n.DurNs))
	keys := make([]string, 0, len(n.Tags))
	for k := range n.Tags {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%s", k, n.Tags[k])
	}
	fmt.Fprintln(w)
	for _, c := range n.Children {
		writeSpanTree(w, c, depth+1)
	}
}

// printStats renders the warehouse statistics — catalog row counts, the
// closure-cache counters, the compact-index footprint (interned ids, CSR
// bytes, closure bitset words, token bytes) over every run, and what the
// closure cache and the mapping memo hold.
func printStats(sys *zoom.System) error {
	if _, err := runsOf(sys); err != nil {
		return err
	}
	st := sys.Stats()
	fmt.Println(st)
	cc := sys.CacheCounters()
	fmt.Printf("cache: hits=%d misses=%d shared=%d computes=%d stores=%d evictions=%d invalidations=%d drops=%d\n",
		cc.Hits, cc.Misses, cc.SharedWaits, cc.Computes, cc.Stores, cc.Evictions, cc.Invalidations, cc.Drops)
	fmt.Printf("index: runs=%d interned-steps=%d interned-data=%d csr=%dB closure-words=%d tokens=%dB\n",
		st.Index.IndexedRuns, st.Index.InternedSteps, st.Index.InternedData,
		st.Index.CSRBytes, st.Index.ClosureWords, st.Index.TokenBytes)
	fmt.Printf("memos: closures=%d closure-bytes=%dB mappings=%d mapping-bytes=%dB\n",
		st.Closures.Entries, st.Closures.Bytes, st.Mappings.Entries, st.Mappings.Bytes)
	return nil
}

// cmdStats prints warehouse statistics on their own; -json emits the whole
// Stats structure — catalog, cache counters, index footprint, and the
// metrics snapshot — as one JSON document. A metrics registry is attached
// before loading, so the ingest section reflects the load just performed
// (snapshot load time, runs loaded). With -cluster it talks to a running
// router instead of a local snapshot: GET /v1/cluster/stats returns the
// router's own metrics plus every worker's registry merged into one
// cluster-wide snapshot.
func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	whPath := fs.String("warehouse", "", "warehouse snapshot file (or use -cluster)")
	clusterURL := fs.String("cluster", "", "router base URL; fetch aggregated cluster statistics instead of reading a snapshot")
	asJSON := fs.Bool("json", false, "emit the full statistics, including the metrics snapshot, as JSON")
	_ = fs.Parse(args)
	if *clusterURL != "" {
		return clusterStats(*clusterURL, *asJSON)
	}
	if *whPath == "" {
		return fmt.Errorf("stats: -warehouse or -cluster is required")
	}
	sys, err := openSystem(*whPath, zoom.NewMetrics(), nil)
	if err != nil {
		return err
	}
	defer sys.Close()
	if !*asJSON {
		return printStats(sys)
	}
	if _, err := runsOf(sys); err != nil {
		return err
	}
	out, err := json.MarshalIndent(sys.Stats(), "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// clusterStats implements `zoom stats -cluster URL`: one request to the
// router answers for the whole cluster.
func clusterStats(base string, asJSON bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl := zoomclient.New(base, zoomclient.Options{})
	cs, err := cl.ClusterStats(ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if asJSON {
		out, err := json.MarshalIndent(cs, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}
	// The trace id is the router's X-Zoom-Trace-Id header; no body names it.
	fmt.Printf("cluster: %d/%d shards reporting (trace %s)\n", cs.ShardsOK, cs.ShardsTotal, cs.TraceID)
	if cs.Partial {
		fmt.Println("  PARTIAL: some shards failed to answer")
	}
	for _, sh := range cs.Shards {
		fmt.Printf("  shard %d: %s\n", sh.Shard, sh.Addr)
	}
	// The merged snapshot's headline counters; the full document is -json.
	var agg struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(cs.Cluster, &agg); err == nil && len(agg.Counters) > 0 {
		for _, k := range []string{"http.requests", "http.errors", "http.slow_requests", "cache.hits", "cache.misses"} {
			if v, ok := agg.Counters[k]; ok {
				fmt.Printf("  %-22s %d\n", k, v)
			}
		}
	}
	return nil
}

func cmdRuns(args []string) error {
	fs := flag.NewFlagSet("runs", flag.ExitOnError)
	whPath := fs.String("warehouse", "", "warehouse snapshot file (required)")
	_ = fs.Parse(args)
	if *whPath == "" {
		return fmt.Errorf("runs: -warehouse is required")
	}
	sys, err := openSystem(*whPath, nil, nil)
	if err != nil {
		return err
	}
	defer sys.Close()
	runs, err := runsOf(sys)
	if err != nil {
		return err
	}
	fmt.Println(sys.Stats())
	for _, name := range sys.SpecNames() {
		fmt.Printf("spec %s (views: %v)\n", name, sys.ViewNames(name))
	}
	for _, r := range runs {
		fmt.Printf("  %s\n", r)
	}
	return nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if t := strings.TrimSpace(p); t != "" {
			out = append(out, t)
		}
	}
	return out
}
