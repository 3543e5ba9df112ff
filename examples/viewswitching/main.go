// Viewswitching: the interactive scenario of Section V.B. A loop-heavy
// Class 4 workflow is executed into a large run; the user then refines the
// granularity of their view step by step — from black box to administrator
// — re-asking the same deep-provenance query. Thanks to the cached UAdmin
// closure (the paper's temporary table), every re-query after the first is
// nearly free, and the result sizes trace the Figure 11 curve.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/zoom"
)

func main() {
	g := zoom.NewGenerator(7)
	class := zoom.WorkflowClasses()[3] // Class4: Loop 50% / Sequence 50%
	s := g.Workflow(class, "loopy")
	fmt.Printf("workflow: %s\n", s)

	r, _, err := g.Run(s, zoom.RunClasses()[1], "bigrun") // medium kind
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run:      %s\n\n", r)

	sys := zoom.NewSystem()
	must(sys.RegisterSpec(s))
	must(sys.LoadRun(r))
	final := r.FinalOutputs()[0]

	mods := s.ModuleNames()
	fmt.Printf("%-12s %-10s %-12s %-12s %s\n", "view", "size", "executions", "data items", "query time")
	for pct := 0; pct <= 100; pct += 25 {
		relevant := mods[:len(mods)*pct/100]
		v, err := zoom.BuildUserView(s, relevant)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, err := sys.DeepProvenance("bigrun", v, final)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		fmt.Printf("%3d%% rel.   %-10d %-12d %-12d %s\n",
			pct, v.Size(), res.NumSteps(), res.NumData(), elapsed.Round(time.Microsecond))
	}

	cc := sys.CacheCounters()
	fmt.Printf("\nclosure cache: %d hits, %d misses — only the first query paid for the recursion;\n", cc.Hits, cc.Misses)
	fmt.Println("every later view switch re-projected the cached UAdmin closure (the paper's ~13 ms result).")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
