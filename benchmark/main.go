// Command zoomload is the repository's benchmark. It builds cmd/zoom,
// generates a corpus, ingests, saves and shards it through the real paths,
// boots two `zoom serve -mmap` workers and a `zoom router` as child
// processes, drives them over real sockets, checks the answers against an
// in-process engine, and prints every metric by name with its unit.
//
//	go run . -root .. -workload all            # from benchmark/
//	bash benchmark/run.sh --workload hot-small --seed 1 --seconds 15 --trace 0
//
// README.md in this directory is the manual.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// report is what -out writes and -compare reads.
type report struct {
	Env     map[string]string `json:"env"`
	Results []*result         `json:"results"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workloadName = flag.String("workload", "all", "workload to run: hot-small, cold-deep, view-switch, ingest-restart, or all")
		seed         = flag.Int64("seed", 1, "seed of the tape: key order and arrival times")
		seconds      = flag.Float64("seconds", 15, "length of the measured window")
		trace        = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics; 0 reports the end-to-end metrics")
		smoke        = flag.Bool("smoke", false, "run every workload once with a 3 s window and one set-up")
		compare      = flag.Bool("compare", false, "compare two -out files, given as arguments, metric by metric against the bounds")
		out          = flag.String("out", "", "also write the results, as JSON, to this file")
		root         = flag.String("root", ".", "root of the repository checkout")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fail(errors.New("-compare takes two files: the baseline and the candidate"))
		}
		breached, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if breached {
			return 1
		}
		return 0
	}
	var todo []*workload
	if *workloadName == "all" || *smoke {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if wl := workloadNamed(*workloadName); wl != nil {
		todo = append(todo, wl)
	} else {
		return fail(fmt.Errorf("unknown workload %q", *workloadName))
	}
	o := runOpts{seed: *seed, seconds: *seconds, traced: *trace != 0, setups: 3}
	if *smoke {
		o.seconds, o.setups = 3, 1
	}
	if o.traced {
		o.setups = 1
	}
	if o.seconds <= 0 {
		return fail(errors.New("-seconds must be positive"))
	}

	e, err := newEnv(*root)
	if err != nil {
		return fail(err)
	}
	// Every exit path stops the children and removes the temporary
	// directory: a return and a panic through this defer, a signal through
	// the goroutine below.
	defer e.cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(130)
	}()

	rep := &report{Env: e.describe(o)}
	printEnv(rep.Env)
	allCorrect := true
	for _, wl := range todo {
		res, err := e.run(context.Background(), wl, o)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", wl.name, err))
		}
		rep.Results = append(rep.Results, res)
		printResult(res)
		allCorrect = allCorrect && res.Correct
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			return fail(err)
		}
	}
	if len(todo) == 1 {
		line, err := contractLine(rep.Results[0])
		if err != nil {
			return fail(err)
		}
		fmt.Println(line)
	}
	if !allCorrect {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "zoomload:", err)
	return 1
}

// describe records where and on what the numbers were taken.
func (e *env) describe(o runOpts) map[string]string {
	kernel, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		kernel = []byte("unknown")
	}
	commit := "unknown" // a checkout need not be a git repository
	git := exec.Command("git", "rev-parse", "--short", "HEAD")
	git.Dir = e.root
	if b, err := git.Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return map[string]string{
		"nproc":      fmt.Sprint(len(e.cpus)),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"kernel":     strings.TrimSpace(string(kernel)),
		"commit":     commit,
		"seed":       fmt.Sprint(o.seed),
		"seconds":    fmt.Sprint(o.seconds),
		"build_s":    fmt.Sprintf("%.2f", e.buildS),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

func printEnv(env map[string]string) {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+env[k])
	}
	fmt.Println("zoomload:", strings.Join(parts, " "))
}

// printResult prints every metric of a run by name, with its unit.
func printResult(res *result) {
	fmt.Printf("\n== %s  seed=%d  window=%gs  traced=%v  attempted=%d failed=%d correct=%v\n",
		res.Workload, res.Seed, res.Seconds, res.Traced, res.Attempted, res.Failed, res.Correct)
	fmt.Printf("%-28s %14s %-6s %-7s %-6s %s\n", "end-to-end", "value", "unit", "better", "bound", "slices min/median/max")
	for _, d := range endToEnd {
		line := fmt.Sprintf("%-28s %14.4f %-6s %-7s %-6s", d.Name, res.Metrics[d.Name], d.Unit, d.Better,
			fmt.Sprintf("%g%%", d.Bound*100))
		if sp, ok := res.Spreads[d.Name]; ok {
			line += fmt.Sprintf(" %.4g / %.4g / %.4g", sp.Min, sp.Median, sp.Max)
		}
		fmt.Println(line)
	}
	fmt.Printf("%-28s %14s %-6s\n", "per-layer", "value", "unit")
	for _, d := range perLayer {
		if v, ok := res.Metrics[d.Name]; ok {
			fmt.Printf("%-28s %14.4f %-6s\n", d.Name, v, d.Unit)
		}
	}
	if len(res.Budget) > 0 {
		fmt.Printf("%-28s %14s %14s %7s\n", "budget of a routed query", "p50 us", "p95 us", "share")
		for _, row := range res.Budget {
			fmt.Printf("%-28s %14.1f %14.1f %6.1f%%\n", row.Layer, row.P50US, row.P95US, row.Share*100)
		}
	}
	for _, n := range res.Notes {
		fmt.Println("note:", n)
	}
}

// contractLine renders the one JSON object a single-workload run ends
// with: the end-to-end metrics of an untraced run, the per-layer metrics of
// a traced one.
func contractLine(res *result) (string, error) {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("%s: metric %s was not measured", res.Workload, d.Name)
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(line), err
}
