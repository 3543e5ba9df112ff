package run

import (
	"fmt"

	"repro/internal/spec"
)

// Figure2 returns the workflow run of Figure 2 — the execution of the
// phylogenomics specification the whole paper reasons about. Every data id
// the text states explicitly is honored:
//
//   - one hundred sequences d1..d100 are the initial input to S1;
//   - S2 (first execution of M3) has input set {d308, ..., d408};
//   - the loop M3 -> M4 -> M5 executes twice: S2:M3, S3:M4, S4:M5,
//     S5:M3, S6:M4, with S3 -> S4 carrying d410, S4 -> S5 carrying d411,
//     S5 -> S6 carrying d412, and S6 producing d413;
//   - minor modifications to the annotations yield d202..d206 (S7:M2);
//   - thirty-odd lab annotations d415..d445 are user input to S9:M6;
//   - the final tree is d447, produced by S10:M7.
//
// The composite executions the paper derives are validated in the composite
// package's tests: S11 = {S2, S3} with input {d308..d408} and output
// {d410}; S12 = {S5, S6} with input {d411} and output {d413}; S13 =
// {S2..S6} with input {d308..d408} and output {d413}.
func Figure2() *Run {
	b := NewBuilder("fig2", "phylogenomics")
	steps := [][2]string{
		{"S1", "M1"}, {"S2", "M3"}, {"S3", "M4"}, {"S4", "M5"}, {"S5", "M3"},
		{"S6", "M4"}, {"S7", "M2"}, {"S8", "M8"}, {"S9", "M6"}, {"S10", "M7"},
	}
	for _, s := range steps {
		mustAdd(b.AddStep(s[0], s[1]))
	}
	mustAdd(b.AddFlow(spec.Input, "S1", DataIDs(1, 100)))
	mustAdd(b.AddFlow("S1", "S2", DataIDs(308, 408)))
	mustAdd(b.AddFlow("S1", "S7", []string{"d201"}))
	mustAdd(b.AddFlow("S7", "S8", DataIDs(202, 206)))
	mustAdd(b.AddFlow(spec.Input, "S9", DataIDs(415, 445)))
	mustAdd(b.AddFlow("S2", "S3", []string{"d409"}))
	mustAdd(b.AddFlow("S3", "S4", []string{"d410"}))
	mustAdd(b.AddFlow("S4", "S5", []string{"d411"}))
	mustAdd(b.AddFlow("S5", "S6", []string{"d412"}))
	mustAdd(b.AddFlow("S6", "S10", []string{"d413"}))
	mustAdd(b.AddFlow("S8", "S10", []string{"d414"}))
	mustAdd(b.AddFlow("S9", "S10", []string{"d446"}))
	mustAdd(b.AddFlow("S10", spec.Output, []string{"d447"}))
	r, err := b.Build()
	if err == nil {
		err = r.Validate()
	}
	mustAdd(err)
	return r
}

// mustAdd panics on a construction error that cannot happen: a fixture, or
// a builder replaying a built run.
func mustAdd(err error) {
	if err != nil {
		panic(fmt.Sprintf("run: construction failed: %v", err))
	}
}
