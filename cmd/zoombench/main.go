// Command zoombench runs the evaluation harness: every table and figure of
// the paper's Section V, printed as aligned text tables. The default scale
// finishes in seconds; -full reproduces the paper's workload volumes
// (10 workflows per class, 30 runs per kind — 3,600 runs — and 1,000
// randomized specifications for the scalability sweep).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/zoom"
)

func main() {
	var (
		full = flag.Bool("full", false, "paper-scale workload volumes")
		seed = flag.Int64("seed", 1, "experiment seed")
		out  = flag.String("out", "", "also write the reports to this file")
		only = flag.String("only", "", "run a single experiment id (T1,T2,E1,E2,F10,E3,E4,F11,E5,A1/A2)")
	)
	flag.Parse()

	o := zoom.DefaultBench()
	if *full {
		o = zoom.FullBench()
	}
	o.Seed = *seed

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zoombench:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	start := time.Now()
	fmt.Fprintf(w, "ZOOM*UserViews evaluation (seed %d, full=%v)\n\n", *seed, *full)
	ran := 0
	for _, exp := range zoom.BenchExperiments() {
		// Filter before running: -only pays for one experiment, not all.
		if *only != "" && exp.ID != *only {
			continue
		}
		rep := exp.Run(o)
		ran++
		fmt.Fprintln(w, rep.String())
	}
	if *only != "" && ran == 0 {
		fmt.Fprintf(os.Stderr, "zoombench: unknown experiment id %q\n", *only)
		os.Exit(1)
	}
	fmt.Fprintf(w, "total wall time: %s\n", time.Since(start).Round(time.Millisecond))
}
