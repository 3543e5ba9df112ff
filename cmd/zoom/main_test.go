package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/warehouse"
	"repro/zoom"
)

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.String(), runErr
}

// captureBoth runs fn with stdout and stderr redirected, returning both
// streams separately — for commands whose contract is exactly "answer on
// stdout, diagnostics on stderr" (like query -trace).
func captureBoth(t *testing.T, fn func() error) (stdout, stderr string, err error) {
	t.Helper()
	oldOut, oldErr := os.Stdout, os.Stderr
	ro, wo, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	re, we, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout, os.Stderr = wo, we
	runErr := fn()
	wo.Close()
	we.Close()
	os.Stdout, os.Stderr = oldOut, oldErr
	var bufOut, bufErr bytes.Buffer
	if _, err := io.Copy(&bufOut, ro); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(&bufErr, re); err != nil {
		t.Fatal(err)
	}
	return bufOut.String(), bufErr.String(), runErr
}

func writeSpecFile(t *testing.T, dir string) string {
	t.Helper()
	data, err := zoom.EncodeSpec(zoom.Phylogenomics())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "phylo.spec.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeLogFile(t *testing.T, dir string) string {
	t.Helper()
	events, err := zoom.PhylogenomicsRun().ToLog()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "fig2.log.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := zoom.WriteLog(f, events); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCmdExample(t *testing.T) {
	out, err := capture(t, func() error { return cmdExample(nil) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Joe finds [M2 M3 M7] relevant",
		"immediate provenance of d413",
		"{d308..d408}",
		"{d411}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("example output missing %q", want)
		}
	}
}

func TestCmdSpec(t *testing.T) {
	dir := t.TempDir()
	path := writeSpecFile(t, dir)
	out, err := capture(t, func() error { return cmdSpec([]string{"-file", path}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "8 modules") || !strings.Contains(out, "scientific modules: [M3 M7]") {
		t.Fatalf("spec summary wrong:\n%s", out)
	}
	dotOut, err := capture(t, func() error { return cmdSpec([]string{"-file", path, "-dot"}) })
	if err != nil || !strings.Contains(dotOut, "digraph") {
		t.Fatalf("spec -dot failed: %v\n%s", err, dotOut)
	}
	if _, err := capture(t, func() error { return cmdSpec(nil) }); err == nil {
		t.Fatal("missing -file accepted")
	}
	if _, err := capture(t, func() error { return cmdSpec([]string{"-file", filepath.Join(dir, "nope.json")}) }); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCmdView(t *testing.T) {
	dir := t.TempDir()
	path := writeSpecFile(t, dir)
	out, err := capture(t, func() error {
		return cmdView([]string{"-file", path, "-relevant", "M2,M3,M7"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "user view (size 4)") || !strings.Contains(out, "[M3 M4 M5]") {
		t.Fatalf("view output wrong:\n%s", out)
	}
	if _, err := capture(t, func() error {
		return cmdView([]string{"-file", path, "-relevant", "M99"})
	}); err == nil {
		t.Fatal("unknown relevant accepted")
	}
	if _, err := capture(t, func() error { return cmdView(nil) }); err == nil {
		t.Fatal("missing -file accepted")
	}
}

func TestCmdLoadQueryRuns(t *testing.T) {
	dir := t.TempDir()
	specPath := writeSpecFile(t, dir)
	logPath := writeLogFile(t, dir)
	wh := filepath.Join(dir, "wh.json")

	if _, err := capture(t, func() error {
		return cmdLoad([]string{"-warehouse", wh, "-file", specPath, "-log", logPath, "-run", "fig2"})
	}); err != nil {
		t.Fatal(err)
	}

	out, err := capture(t, func() error { return cmdRuns([]string{"-warehouse", wh}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "spec phylogenomics") || !strings.Contains(out, `run "fig2"`) {
		t.Fatalf("runs output wrong:\n%s", out)
	}

	// Deep query through a built view.
	out, err = capture(t, func() error {
		return cmdQuery([]string{"-warehouse", wh, "-run", "fig2", "-data", "d447",
			"-relevant", "M2,M3,M7"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "deep provenance of d447") {
		t.Fatalf("query output wrong:\n%s", out)
	}

	// Immediate mode, Mary's view.
	out, err = capture(t, func() error {
		return cmdQuery([]string{"-warehouse", wh, "-run", "fig2", "-data", "d413",
			"-relevant", "M2,M3,M5,M7", "-mode", "immediate"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "{d411}") {
		t.Fatalf("immediate output wrong:\n%s", out)
	}

	// Derived mode under UAdmin (no -relevant).
	out, err = capture(t, func() error {
		return cmdQuery([]string{"-warehouse", wh, "-run", "fig2", "-data", "d410", "-mode", "derived"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "derived from d410") {
		t.Fatalf("derived output wrong:\n%s", out)
	}

	// External input metadata answer.
	out, err = capture(t, func() error {
		return cmdQuery([]string{"-warehouse", wh, "-run", "fig2", "-data", "d1", "-mode", "immediate"})
	})
	if err != nil || !strings.Contains(out, "user/workflow input") {
		t.Fatalf("external immediate wrong: %v\n%s", err, out)
	}

	// DOT output mode.
	out, err = capture(t, func() error {
		return cmdQuery([]string{"-warehouse", wh, "-run", "fig2", "-data", "d447", "-dot"})
	})
	if err != nil || !strings.Contains(out, "digraph") {
		t.Fatalf("query -dot wrong: %v", err)
	}

	// Batch deep query with a worker pool (-parallel).
	out, err = capture(t, func() error {
		return cmdQuery([]string{"-warehouse", wh, "-run", "fig2", "-data", "d447,d413,d410",
			"-relevant", "M2,M3,M7", "-parallel", "4"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"deep provenance of d447",
		"deep provenance of d413",
		"deep provenance of d410",
		"batch of 3 answered with 3 workers", // pool clamped to the batch size
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("batch output missing %q:\n%s", want, out)
		}
	}

	// Error paths.
	for _, args := range [][]string{
		{"-warehouse", wh, "-run", "ghost", "-data", "d1"},
		{"-warehouse", wh, "-run", "fig2", "-data", "nope"},
		{"-warehouse", wh, "-run", "fig2", "-data", "d1", "-mode", "bogus"},
		{"-warehouse", wh, "-run", "fig2", "-data", "d447,d413", "-mode", "derived"},
		{"-warehouse", wh, "-run", "fig2", "-data", "d447,d413", "-dot"},
		{"-warehouse", wh, "-run", "fig2", "-data", "d447,nope"},
		{"-run", "fig2", "-data", "d1"},
	} {
		if _, err := capture(t, func() error { return cmdQuery(args) }); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
	if _, err := capture(t, func() error { return cmdRuns(nil) }); err == nil {
		t.Fatal("runs without -warehouse accepted")
	}
	if _, err := capture(t, func() error {
		return cmdLoad([]string{"-warehouse", wh, "-log", logPath})
	}); err == nil {
		t.Fatal("load -log without -run/-spec accepted")
	}
}

func TestSplitList(t *testing.T) {
	if got := splitList(""); got != nil {
		t.Fatalf("splitList(\"\") = %v", got)
	}
	got := splitList(" M1, M2 ,,M3 ")
	if !reflect.DeepEqual(got, []string{"M1", "M2", "M3"}) {
		t.Fatalf("splitList = %v", got)
	}
}

func TestCmdSpecGraphMLAndQueryProv(t *testing.T) {
	dir := t.TempDir()
	specPath := writeSpecFile(t, dir)
	logPath := writeLogFile(t, dir)
	wh := filepath.Join(dir, "wh.json")

	out, err := capture(t, func() error { return cmdSpec([]string{"-file", specPath, "-graphml"}) })
	if err != nil || !strings.Contains(out, "<graphml") {
		t.Fatalf("spec -graphml failed: %v", err)
	}

	if _, err := capture(t, func() error {
		return cmdLoad([]string{"-warehouse", wh, "-file", specPath, "-log", logPath, "-run", "fig2"})
	}); err != nil {
		t.Fatal(err)
	}
	out, err = capture(t, func() error {
		return cmdQuery([]string{"-warehouse", wh, "-run", "fig2", "-data", "d447",
			"-relevant", "M2,M3,M7", "-prov"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"prov": "http://www.w3.org/ns/prov#"`) {
		t.Fatalf("PROV export missing namespace:\n%s", out[:200])
	}
	// Stats line appears in the runs listing.
	out, err = capture(t, func() error { return cmdRuns([]string{"-warehouse", wh}) })
	if err != nil || !strings.Contains(out, "specs=1") {
		t.Fatalf("runs stats missing: %v\n%s", err, out)
	}
}

func TestCmdAsk(t *testing.T) {
	dir := t.TempDir()
	specPath := writeSpecFile(t, dir)
	logPath := writeLogFile(t, dir)
	wh := filepath.Join(dir, "wh.json")
	if _, err := capture(t, func() error {
		return cmdLoad([]string{"-warehouse", wh, "-file", specPath, "-log", logPath, "-run", "fig2"})
	}); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return cmdAsk([]string{"-warehouse", wh, "-run", "fig2",
			"-relevant", "M2,M3,M5,M7", "-q", "immediate(d413)"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "from {d411}") {
		t.Fatalf("ask output wrong:\n%s", out)
	}
	out, err = capture(t, func() error {
		return cmdAsk([]string{"-warehouse", wh, "-run", "fig2", "-q", "in(d308, d447)"})
	})
	if err != nil || !strings.Contains(out, "true") {
		t.Fatalf("ask in() wrong: %v\n%s", err, out)
	}
	if _, err := capture(t, func() error {
		return cmdAsk([]string{"-warehouse", wh, "-run", "fig2", "-q", "frobnicate(x)"})
	}); err == nil {
		t.Fatal("bad form accepted")
	}
	if _, err := capture(t, func() error { return cmdAsk(nil) }); err == nil {
		t.Fatal("missing flags accepted")
	}
}

func TestCmdCompare(t *testing.T) {
	dir := t.TempDir()
	specPath := writeSpecFile(t, dir)
	wh := filepath.Join(dir, "wh.json")
	if _, err := capture(t, func() error {
		return cmdLoad([]string{"-warehouse", wh, "-file", specPath})
	}); err != nil {
		t.Fatal(err)
	}
	// Load two runs with different iteration counts via logs.
	for i, iters := range []int{2, 5} {
		r, events, err := zoom.Execute(zoom.Phylogenomics(), zoom.ExecConfig{
			RunID: "r", Seed: 3, LoopIter: [2]int{iters, iters}})
		if err != nil {
			t.Fatal(err)
		}
		_ = r
		logPath := filepath.Join(dir, "run.log")
		f, err := os.Create(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := zoom.WriteLog(f, events); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if _, err := capture(t, func() error {
			return cmdLoad([]string{"-warehouse", wh, "-spec", "phylogenomics",
				"-log", logPath, "-run", []string{"runA", "runB"}[i]})
		}); err != nil {
			t.Fatal(err)
		}
	}
	out, err := capture(t, func() error {
		return cmdCompare([]string{"-warehouse", wh, "-a", "runA", "-b", "runB"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "compare runA vs runB") || !strings.Contains(out, "executed") {
		t.Fatalf("compare output wrong:\n%s", out)
	}
	if _, err := capture(t, func() error { return cmdCompare(nil) }); err == nil {
		t.Fatal("missing flags accepted")
	}
	if _, err := capture(t, func() error {
		return cmdCompare([]string{"-warehouse", wh, "-a", "ghost", "-b", "runB"})
	}); err == nil {
		t.Fatal("unknown run accepted")
	}
}

// TestCmdTraceSpanTree: -trace runs the deep query cold then warm and prints
// each run's span tree on stderr — the paper's view-switch speedup, read
// off the same spans a served ?trace=1 returns: the cold lookup is a miss
// with the closure compute beneath it, the warm one a hit with none. Stdout
// is exactly the untraced answer, on a JSON and on a v3 warehouse.
func TestCmdTraceSpanTree(t *testing.T) {
	dir := t.TempDir()
	specPath := writeSpecFile(t, dir)
	logPath := writeLogFile(t, dir)
	dur := regexp.MustCompile(`[0-9]+(\.[0-9]+)?(ns|µs|ms|s)`)
	for _, format := range []string{"json", "v3"} {
		t.Run(format, func(t *testing.T) {
			wh := filepath.Join(dir, "wh."+format)
			if _, err := capture(t, func() error {
				return cmdLoad([]string{"-warehouse", wh, "-file", specPath, "-log", logPath, "-run", "fig2", "-format", format})
			}); err != nil {
				t.Fatal(err)
			}
			args := []string{"-warehouse", wh, "-run", "fig2", "-data", "d447", "-relevant", "M2,M3,M7"}
			plain, err := capture(t, func() error { return cmdQuery(args) })
			if err != nil {
				t.Fatal(err)
			}
			out, errOut, err := captureBoth(t, func() error {
				return cmdQuery(append(args[:len(args):len(args)], "-trace"))
			})
			if err != nil {
				t.Fatal(err)
			}
			if out != plain || !strings.Contains(out, "deep provenance of d447") {
				t.Fatalf("stdout under -trace differs from the untraced answer:\n%s\nwant:\n%s", out, plain)
			}
			cold, warm, ok := strings.Cut(dur.ReplaceAllString(errOut, "<dur>"), "warm:\n")
			if !ok || !strings.HasPrefix(cold, "cold:\n") {
				t.Fatalf("stderr is not a cold tree then a warm tree:\n%s", errOut)
			}
			for _, want := range []string{"  query <dur>\n", "    query.lookup <dur> outcome=miss\n",
				"      closure.compute <dur>\n", "    query.project <dur>\n"} {
				if !strings.Contains(cold, want) {
					t.Fatalf("cold tree missing %q:\n%s", want, cold)
				}
			}
			for _, want := range []string{"  query <dur>\n", "    query.lookup <dur> outcome=hit\n", "    query.project <dur>\n"} {
				if !strings.Contains(warm, want) {
					t.Fatalf("warm tree missing %q:\n%s", want, warm)
				}
			}
			if strings.Contains(warm, "closure.compute") {
				t.Fatalf("warm tree reports a compute stage:\n%s", warm)
			}
		})
	}

	// -trace is single-query only.
	wh := filepath.Join(dir, "wh.json")
	if _, err := capture(t, func() error {
		return cmdQuery([]string{"-warehouse", wh, "-run", "fig2", "-data", "d447,d413", "-trace"})
	}); err == nil {
		t.Fatal("-trace with multiple data ids accepted")
	}
}

// TestCmdStats: the stats subcommand prints warehouse and cache state, and
// -json emits a machine-readable Stats including the Metrics section
// populated by the load itself.
func TestCmdStats(t *testing.T) {
	dir := t.TempDir()
	specPath := writeSpecFile(t, dir)
	logPath := writeLogFile(t, dir)
	wh := filepath.Join(dir, "wh.json")
	if _, err := capture(t, func() error {
		return cmdLoad([]string{"-warehouse", wh, "-file", specPath, "-log", logPath, "-run", "fig2"})
	}); err != nil {
		t.Fatal(err)
	}

	out, err := capture(t, func() error { return cmdStats([]string{"-warehouse", wh}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"runs=1", "cache:", "stores=0", "drops=0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats output missing %q:\n%s", want, out)
		}
	}

	out, err = capture(t, func() error { return cmdStats([]string{"-warehouse", wh, "-json"}) })
	if err != nil {
		t.Fatal(err)
	}
	var stats warehouse.Stats
	if err := json.Unmarshal([]byte(out), &stats); err != nil {
		t.Fatalf("stats -json is not JSON: %v\n%s", err, out)
	}
	if stats.Runs != 1 {
		t.Fatalf("stats.Runs = %d, want 1", stats.Runs)
	}
	if stats.Metrics == nil {
		t.Fatal("stats -json missing Metrics section")
	}
	if stats.Metrics.Counters["ingest.runs_loaded"] != 1 {
		t.Fatalf("ingest metrics not recorded: %+v", stats.Metrics.Counters)
	}
	if stats.Metrics.Histograms["ingest.snapshot_load_ns"].Count != 1 {
		t.Fatalf("snapshot load not timed: %+v", stats.Metrics.Histograms)
	}

	if _, err := capture(t, func() error { return cmdStats(nil) }); err == nil {
		t.Fatal("stats without -warehouse accepted")
	}
}

// TestCmdStatsCluster: `zoom stats -cluster` names the trace of the router's
// answer, which the router sends in its X-Zoom-Trace-Id header and not in the
// body.
func TestCmdStatsCluster(t *testing.T) {
	const id = "00000000c0ffee01"
	router := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/cluster/stats" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("X-Zoom-Trace-Id", id)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"shards_total":2,"shards_ok":2,"router":{},"cluster":{"counters":{"http.requests":3,"cache.hits":5,"cache.misses":2}},"shards":[{"shard":0,"addr":"a","stats":{}},{"shard":1,"addr":"b","stats":{}}]}`)
	}))
	defer router.Close()
	out, err := capture(t, func() error { return clusterStats(router.URL, false) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cluster: 2/2 shards reporting (trace " + id + ")",
		"  cache.hits             5\n", "  cache.misses           2\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats -cluster output missing %q:\n%s", want, out)
		}
	}
}

// TestCmdTraceProvJSON pins the stdout contract: with -trace AND
// -prov, stdout must still be exactly one valid PROV-JSON document — the
// breakdown lives on stderr, so piping `zoom query -prov -trace` into a
// JSON consumer keeps working.
func TestCmdTraceProvJSON(t *testing.T) {
	dir := t.TempDir()
	wh := filepath.Join(dir, "wh.json")
	if _, err := capture(t, func() error {
		return cmdExample([]string{"-warehouse", wh})
	}); err != nil {
		t.Fatal(err)
	}

	out, errOut, err := captureBoth(t, func() error {
		return cmdQuery([]string{"-warehouse", wh, "-run", "fig2", "-data", "d447",
			"-relevant", "M2,M3,M7", "-trace", "-prov"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("stdout is not valid JSON under -trace -prov: %v\n%s", err, out)
	}
	if _, ok := doc["entity"]; !ok {
		t.Fatalf("PROV-JSON document has no entities: %s", out)
	}
	if !strings.Contains(errOut, "cold:\n") || !strings.Contains(errOut, "warm:\n") {
		t.Fatalf("span trees missing from stderr:\n%s", errOut)
	}
}

// TestCmdExampleWarehouse: `zoom example -warehouse` saves a queryable
// snapshot with the joe and mary views registered by name.
func TestCmdExampleWarehouse(t *testing.T) {
	dir := t.TempDir()
	wh := filepath.Join(dir, "wh.json")
	out, err := capture(t, func() error { return cmdExample([]string{"-warehouse", wh}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "saved warehouse snapshot") {
		t.Fatalf("no save confirmation:\n%s", out)
	}
	sys, err := openSystem(wh, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.ViewNames("phylogenomics"); len(got) != 2 {
		t.Fatalf("saved views: %v, want joe and mary", got)
	}
	v, err := sys.View("phylogenomics", "joe")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.DeepProvenance("fig2", v, "d447")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumSteps() != 4 {
		t.Fatalf("deep provenance through saved joe view: %d steps, want 4", res.NumSteps())
	}
}

// TestCmdServeValidation covers the fast failures: a missing -warehouse
// flag and a nonexistent snapshot file must error before binding a port.
func TestCmdServeValidation(t *testing.T) {
	if err := cmdServe(nil); err == nil {
		t.Fatal("serve without -warehouse accepted")
	}
	err := cmdServe([]string{"-warehouse", filepath.Join(t.TempDir(), "absent.json")})
	if err == nil || !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("serve with absent warehouse: %v", err)
	}
}

// TestSaveSystemAtomic: saves are temp-file + rename, so a failed save —
// here, a closed system — leaves the existing snapshot byte-identical and
// no temp file behind.
func TestSaveSystemAtomic(t *testing.T) {
	dir := t.TempDir()
	wh := filepath.Join(dir, "wh.json")
	if _, err := capture(t, func() error { return cmdExample([]string{"-warehouse", wh}) }); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(wh)
	if err != nil {
		t.Fatal(err)
	}

	sys, err := openSystem(wh, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"json", "v3"} {
		if err := saveSystemFormat(sys, wh, format); err == nil {
			t.Fatalf("save format %s on a closed system succeeded", format)
		}
	}

	after, err := os.ReadFile(wh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed save altered the existing snapshot")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "wh.json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("failed save left files behind: %v", names)
	}

	// A successful save into a missing directory still fails cleanly.
	if err := saveSystemFormat(sys, filepath.Join(dir, "no", "such", "dir", "x.json"), "json"); err == nil {
		t.Fatal("save into a missing directory succeeded")
	}
}

// TestCmdSaveAndSnapshotConvert: `zoom snapshot convert` and `zoom save`
// rewrite a warehouse into the v3 layout, format sniffing recognizes it,
// `-format keep` preserves it, and queries over the converted snapshot
// answer identically.
func TestCmdSaveAndSnapshotConvert(t *testing.T) {
	dir := t.TempDir()
	wh := filepath.Join(dir, "wh.json")
	whV3 := filepath.Join(dir, "wh.v3")
	if _, err := capture(t, func() error { return cmdExample([]string{"-warehouse", wh}) }); err != nil {
		t.Fatal(err)
	}

	out, err := capture(t, func() error {
		return cmdSnapshot([]string{"convert", "-in", wh, "-out", whV3, "-format", "v3"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "converted") || !strings.Contains(out, "v3") {
		t.Fatalf("convert output wrong:\n%s", out)
	}
	if got := snapshotFormat(whV3); got != "v3" {
		t.Fatalf("snapshotFormat(converted) = %q, want v3", got)
	}
	if got := snapshotFormat(wh); got != "json" {
		t.Fatalf("snapshotFormat(original) = %q, want json", got)
	}

	// The converted snapshot answers like the original (generic load path).
	queryOut, err := capture(t, func() error {
		return cmdQuery([]string{"-warehouse", whV3, "-run", "fig2", "-data", "d447",
			"-relevant", "M2,M3,M7"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(queryOut, "deep provenance of d447") {
		t.Fatalf("query over v3 snapshot wrong:\n%s", queryOut)
	}

	// And the mmap open path agrees too.
	sys, err := zoom.OpenSnapshot(whV3, zoom.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if snap := sys.Stats().Snapshot; snap.Version != 3 || snap.RunsTotal != 1 {
		t.Fatalf("OpenSnapshot stats: %+v", snap)
	}
	v, err := sys.View("phylogenomics", "joe")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.DeepProvenance("fig2", v, "d447")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumSteps() != 4 {
		t.Fatalf("deep provenance over mmap snapshot: %d steps, want 4", res.NumSteps())
	}

	// `zoom load -format keep` re-saves in v3 without being told.
	logPath := writeLogFile(t, dir)
	if _, err := capture(t, func() error {
		return cmdLoad([]string{"-warehouse", whV3, "-spec", "phylogenomics",
			"-log", logPath, "-run", "fig2b"})
	}); err != nil {
		t.Fatal(err)
	}
	if got := snapshotFormat(whV3); got != "v3" {
		t.Fatalf("load -format keep rewrote v3 as %q", got)
	}

	// `zoom save` upgrades in place.
	if _, err := capture(t, func() error {
		return cmdSave([]string{"-warehouse", wh, "-format", "v3"})
	}); err != nil {
		t.Fatal(err)
	}
	if got := snapshotFormat(wh); got != "v3" {
		t.Fatalf("zoom save -format v3: format %q", got)
	}

	// Bad inputs fail loudly.
	if _, err := capture(t, func() error { return cmdSnapshot(nil) }); err == nil {
		t.Fatal("snapshot without a verb accepted")
	}
	if _, err := capture(t, func() error {
		return cmdSnapshot([]string{"convert", "-in", wh, "-out", whV3, "-format", "bogus"})
	}); err == nil {
		t.Fatal("bad convert format accepted")
	}
	if _, err := capture(t, func() error {
		return cmdSave([]string{"-warehouse", filepath.Join(dir, "ghost.json")})
	}); err == nil {
		t.Fatal("save of a missing warehouse accepted")
	}
}

// TestRetiredV2Snapshot: a file with the v2 header is sniffed as retired
// (never as JSON), every command that opens it — load, convert, shard,
// serve, serve -mmap — fails with the warehouse's one sentinel and leaves
// the file alone, and "binary" is no longer a -format value.
func TestRetiredV2Snapshot(t *testing.T) {
	dir := t.TempDir()
	v2 := filepath.Join(dir, "old.snap")
	image := []byte("ZOOM\x02\x01\x10{\"name\":\"spec\"}")
	if err := os.WriteFile(v2, image, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := snapshotFormat(v2); got != "v2 (retired)" {
		t.Fatalf("snapshotFormat(v2) = %q", got)
	}
	unknown := filepath.Join(dir, "future.snap")
	if err := os.WriteFile(unknown, []byte("ZOOM\x09 from the future"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := snapshotFormat(unknown); got != "unknown" {
		t.Fatalf("snapshotFormat(version 9) = %q", got)
	}

	out := filepath.Join(dir, "new.v3")
	for name, cmd := range map[string]func() error{
		"load keep": func() error { return cmdLoad([]string{"-warehouse", v2}) },
		"load v3":   func() error { return cmdLoad([]string{"-warehouse", v2, "-format", "v3"}) },
		"convert":   func() error { return cmdSnapshot([]string{"convert", "-in", v2, "-out", out}) },
		"shard":     func() error { return cmdSnapshot([]string{"shard", "-in", v2, "-n", "2"}) },
		"query":     func() error { return cmdQuery([]string{"-warehouse", v2, "-run", "r", "-data", "d1"}) },
		"serve": func() error {
			return cmdServe([]string{"-warehouse", v2, "-addr", "127.0.0.1:0", "-expvar", ""})
		},
		"serve mmap": func() error {
			return cmdServe([]string{"-warehouse", v2, "-mmap", "-addr", "127.0.0.1:0", "-expvar", ""})
		},
	} {
		_, _, err := captureBoth(t, cmd)
		if !errors.Is(err, warehouse.ErrSnapshotV2Retired) {
			t.Fatalf("%s: err = %v, want ErrSnapshotV2Retired", name, err)
		}
	}
	if after, err := os.ReadFile(v2); err != nil || !bytes.Equal(after, image) {
		t.Fatalf("a refused v2 file was rewritten (err %v)", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("refused commands left files behind: %v", entries)
	}

	wh := filepath.Join(dir, "wh.json")
	for name, cmd := range map[string]func() error{
		"load":    func() error { return cmdLoad([]string{"-warehouse", wh, "-format", "binary"}) },
		"save":    func() error { return cmdSave([]string{"-warehouse", wh, "-format", "binary"}) },
		"convert": func() error { return cmdSnapshot([]string{"convert", "-in", wh, "-out", out, "-format", "binary"}) },
		"shard":   func() error { return cmdSnapshot([]string{"shard", "-in", wh, "-n", "2", "-format", "binary"}) },
	} {
		if _, err := capture(t, cmd); err == nil || !strings.Contains(err.Error(), "unknown -format") {
			t.Fatalf("%s -format binary: err = %v, want unknown -format", name, err)
		}
	}
}

// TestSnapshotShardBytes pins the files `zoom snapshot shard` writes for an
// eight-run warehouse, JSON and v3, from a JSON input and from a mapped v3
// input: the placement ring has one setting, so the split is byte for byte
// the one earlier builds made with their default -replicas.
func TestSnapshotShardBytes(t *testing.T) {
	dir := t.TempDir()
	specPath := writeSpecFile(t, dir)
	logPath := writeLogFile(t, dir)
	wh := filepath.Join(dir, "wh.json")
	for i := 0; i < 8; i++ {
		args := []string{"-warehouse", wh, "-log", logPath, "-run", fmt.Sprintf("run%d", i), "-spec", "phylogenomics"}
		if i == 0 {
			args = append(args, "-file", specPath)
		}
		if _, err := capture(t, func() error { return cmdLoad(args) }); err != nil {
			t.Fatal(err)
		}
	}
	whV3 := filepath.Join(dir, "in.v3")
	for _, args := range [][]string{
		{"shard", "-in", wh, "-n", "2"},
		{"shard", "-in", wh, "-n", "2", "-format", "v3", "-out", filepath.Join(dir, "wh.v3")},
		{"convert", "-in", wh, "-out", whV3, "-format", "v3"},
		{"shard", "-in", whV3, "-n", "2"},
	} {
		if _, err := capture(t, func() error { return cmdSnapshot(args) }); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	const v3shard0 = "04d90fd1cc6f75536d69130abc592976c895ceb56786b005a905501c19a79d4d"
	const v3shard1 = "27f69c242475fd6aa02a197958d3135c8f2d5efb75385f9a6aa5cc10279f2df2"
	for name, want := range map[string]string{
		"wh.json.shard0": "2a4f57b6737f5f4d5109735a68ee34069c2649bc54ffc46513cfb87251e18daf",
		"wh.json.shard1": "313a1cb3d6162fd3fccfa2a23d2fdd36e4df72df14b2bd7112efe1e57e81965d",
		"wh.v3.shard0":   v3shard0,
		"wh.v3.shard1":   v3shard1,
		"in.v3.shard0":   v3shard0,
		"in.v3.shard1":   v3shard1,
	} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
			t.Errorf("%s: sha256 %s, want %s", name, got, want)
		}
	}
}
