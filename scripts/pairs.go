//go:build ignore

// pairs runs the repository's benchmark (benchmark/run.sh) as alternated
// pairs of a parent revision against the working tree, and prints, for each
// end-to-end metric of BENCHMARK.json, both sides' medians with quartiles,
// how many pairs the change won, and a verdict:
//
//   - better: of at least ten pairs, the change won at least 9 in 10, and
//     the medians differ by more than the parent's interquartile range
//   - worse: the change's median is worse than the parent's by more than the
//     metric's bound in BENCHMARK.json
//   - unresolved: anything else, a tie included
//
// The parent is exported with `git archive` under .bench_build/pairs/, and
// every report and log goes there too; nothing under benchmark/ changes.
// Pair i runs the parent first when i is even and the change first when it
// is odd. Windows are BENCHMARK.json's run_seconds long.
//
//	go run scripts/pairs.go -parent HEAD~1 -workload ingest-restart -seeds 501,502,503
//
// or `make pairs PARENT=HEAD~1 WORKLOAD=ingest-restart SEEDS=501,502,503`.
package main

import (
	"archive/tar"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

type metricDef struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// report is the part of a benchmark -out file read here.
type report struct {
	Results []struct {
		Failed  int                `json:"failed"`
		Metrics map[string]float64 `json:"metrics"`
	} `json:"results"`
}

func main() {
	parent := flag.String("parent", "", "git revision to compare the working tree against")
	workload := flag.String("workload", "ingest-restart", "workload to run")
	seedList := flag.String("seeds", "", "comma-separated seeds, one pair each")
	also := flag.String("also", "", "comma-separated per_layer metrics of BENCHMARK.json to report beside the end-to-end ones (no bound)")
	flag.Parse()
	if err := run(*parent, *workload, *seedList, *also); err != nil {
		fmt.Fprintln(os.Stderr, "pairs:", err)
		os.Exit(1)
	}
}

func run(parent, workload, seedList, also string) error {
	if parent == "" || seedList == "" {
		return errors.New("-parent and -seeds are required")
	}
	var seeds []int64
	for _, s := range strings.Split(seedList, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return fmt.Errorf("seed %q: %w", s, err)
		}
		seeds = append(seeds, n)
	}
	root, err := gitOut(".", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	seconds, defs, perLayer, err := readBenchmark(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	for _, name := range strings.Split(also, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		i := slices.IndexFunc(perLayer, func(d metricDef) bool { return d.Name == name })
		if i < 0 {
			return fmt.Errorf("-also %s: not a per_layer metric of BENCHMARK.json", name)
		}
		defs = append(defs, perLayer[i])
	}
	commit, err := gitOut(root, "rev-parse", "--verify", "--short", parent+"^{commit}")
	if err != nil {
		return err
	}
	base := filepath.Join(root, ".bench_build", "pairs")
	parentDir := filepath.Join(base, commit)
	if err := export(root, commit, parentDir); err != nil {
		return err
	}
	outDir := filepath.Join(base, "out-"+time.Now().UTC().Format("20060102T150405"))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	fmt.Printf("parent %s (%s) against the working tree: %s, seeds %s, %gs windows; reports in %s\n",
		commit, parentDir, workload, seedList, seconds, outDir)

	sides := []struct{ name, dir string }{{"parent", parentDir}, {"change", root}}
	reports := map[string][]report{}
	for i, seed := range seeds {
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, k := range order {
			side := sides[k]
			out := filepath.Join(outDir, fmt.Sprintf("%s-%d.json", side.name, seed))
			start := time.Now()
			if err := bench(side.dir, workload, seed, seconds, out); err != nil {
				return fmt.Errorf("%s, seed %d: %w", side.name, seed, err)
			}
			var rep report
			data, err := os.ReadFile(out)
			if err == nil {
				err = json.Unmarshal(data, &rep)
			}
			if err == nil && len(rep.Results) != 1 {
				err = fmt.Errorf("%d results, want 1", len(rep.Results))
			}
			if err != nil {
				return fmt.Errorf("%s: %w", out, err)
			}
			reports[side.name] = append(reports[side.name], rep)
			fmt.Printf("  pair %d/%d seed %d %s: %.0fs\n", i+1, len(seeds), seed, side.name, time.Since(start).Seconds())
		}
	}
	summarize(os.Stdout, defs, reports["parent"], reports["change"])
	return nil
}

// export writes the tree of commit into dir, once.
func export(root, commit, dir string) error {
	done := filepath.Join(dir, ".pairs-exported")
	if _, err := os.Stat(done); err == nil {
		return nil
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	cmd := exec.Command("git", "archive", "--format=tar", commit)
	cmd.Dir, cmd.Stderr = root, os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	tr := tar.NewReader(pipe)
	for {
		h, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		path := filepath.Join(dir, h.Name)
		switch h.Typeflag {
		case tar.TypeDir:
			err = os.MkdirAll(path, 0o755)
		case tar.TypeReg:
			err = writeFile(path, tr, os.FileMode(h.Mode)&0o777)
		}
		if err != nil {
			return err
		}
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("git archive %s: %w", commit, err)
	}
	return os.WriteFile(done, nil, 0o644)
}

func writeFile(path string, r io.Reader, mode os.FileMode) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, mode)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// bench runs one workload of the benchmark in the checkout at dir, its
// output going to a log beside the report.
func bench(dir, workload string, seed int64, seconds float64, out string) error {
	log, err := os.Create(strings.TrimSuffix(out, ".json") + ".log")
	if err != nil {
		return err
	}
	defer log.Close()
	cmd := exec.Command("bash", "benchmark/run.sh", "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0", "--out", out)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, log, log
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%w (see %s)", err, log.Name())
	}
	return nil
}

// readBenchmark returns the window length and the end-to-end and per-layer
// metrics BENCHMARK.json declares, each with the direction that is better.
func readBenchmark(path string) (seconds float64, endToEnd, perLayer []metricDef, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, nil, err
	}
	var b struct {
		RunSeconds float64     `json:"run_seconds"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return 0, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return b.RunSeconds, b.EndToEnd, b.PerLayer, nil
}

func summarize(w io.Writer, defs []metricDef, parent, change []report) {
	fmt.Fprintf(w, "\n%-26s %-28s %-28s %-6s %-7s %s\n", "metric", "parent median [Q1, Q3]", "change median [Q1, Q3]", "ratio", "won", "verdict")
	for _, d := range defs {
		var p, c, ratios []float64
		won := 0
		for i := range parent {
			pv, pok := parent[i].Results[0].Metrics[d.Name]
			cv, cok := change[i].Results[0].Metrics[d.Name]
			if !pok || !cok {
				continue
			}
			p, c = append(p, pv), append(c, cv)
			if pv != 0 {
				ratios = append(ratios, cv/pv)
			}
			if sign(d)*(pv-cv) > 0 {
				won++
			}
		}
		if len(p) == 0 {
			fmt.Fprintf(w, "%-26s not measured\n", d.Name)
			continue
		}
		pm, pq1, pq3 := quartiles(p)
		cm, cq1, cq3 := quartiles(c)
		verdict := "unresolved"
		switch {
		case d.Bound > 0 && pm != 0 && sign(d)*(cm-pm)/math.Abs(pm) > d.Bound:
			verdict = "worse"
		case len(p) >= 10 && 10*won >= 9*len(p) && sign(d)*(pm-cm) > pq3-pq1:
			verdict = "better"
		}
		ratio, _, _ := quartiles(ratios)
		fmt.Fprintf(w, "%-26s %-28s %-28s %-6.3f %-7s %s\n", d.Name,
			fmt.Sprintf("%.4g [%.4g, %.4g]", pm, pq1, pq3), fmt.Sprintf("%.4g [%.4g, %.4g]", cm, cq1, cq3),
			ratio, fmt.Sprintf("%d/%d", won, len(p)), verdict)
	}
	failed := func(rs []report) (n int) {
		for _, r := range rs {
			n += r.Results[0].Failed
		}
		return n
	}
	fmt.Fprintf(w, "failed requests: parent %d, change %d\n", failed(parent), failed(change))
}

// sign is +1 when lower is better, -1 when higher is.
func sign(d metricDef) float64 {
	if d.Better == "higher" {
		return -1
	}
	return 1
}

// quartiles returns the median and the first and third quartiles of xs,
// interpolating between order statistics.
func quartiles(xs []float64) (median, q1, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := slices.Sorted(slices.Values(xs))
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.5), at(0.25), at(0.75)
}

func gitOut(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}
