package main

import (
	"repro/internal/gen"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// corpus is fixed: --seed draws the tape over it.
	corpus corpusDef
	// rate, when not zero, makes the loop open at that many requests per
	// second. Otherwise the loop is closed, one client per processor.
	rate float64
	// tape draws the window's traffic. A workload without one measures
	// set-up itself: its window is set-ups, one after another.
	tape func(c *corpus, seed int64, seconds float64) (*tape, error)
}

// closedLoopCeiling is the request rate no closed loop here reaches; tapes
// are drawn long enough for it.
const closedLoopCeiling = 4000

var workloads = []workload{
	{
		name: "hot-small",
		why:  "small answers, repeated keys: the wire path and the router cache do the work, the engine about 1%",
		corpus: corpusDef{seed: 2, parts: []corpusPart{
			{gen.Class1(), gen.Small(), 22},
			{gen.Class2(), gen.Small(), 21},
			{gen.Class3(), gen.Medium(), 21},
		}},
		rate: 1000,
		tape: func(c *corpus, seed int64, seconds float64) (*tape, error) {
			return hotSmallTape(c, seed, seconds, 1000)
		},
	},
	{
		name: "cold-deep",
		why:  "large answers, every key distinct: closure, projection, encode and relay, and nothing cached",
		corpus: corpusDef{seed: 11, parts: []corpusPart{
			{gen.Class4(), gen.Large(), 32},
		}},
		tape: func(c *corpus, seed int64, seconds float64) (*tape, error) {
			return coldDeepTape(c, seed, int(seconds*closedLoopCeiling))
		},
	},
	{
		name: "view-switch",
		why:  "sessions that compute a closure once and re-read it under six other views: the paper's view switching",
		corpus: corpusDef{seed: 5, parts: []corpusPart{
			{gen.Class3(), gen.Medium(), 16},
			{gen.Class4(), gen.Large(), 16},
		}},
		tape: func(c *corpus, seed int64, seconds float64) (*tape, error) {
			return viewSwitchTape(c, seed, int(seconds*closedLoopCeiling)/sessionLen)
		},
	},
	{
		name: "ingest-restart",
		why:  "writes beside reads: ingest, snapshot, shard, boot and first touch, where work moved out of the query path shows its price",
		corpus: corpusDef{seed: 10, parts: []corpusPart{
			{gen.Class4(), gen.Large(), 12},
		}},
	},
}

func workloadNamed(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
