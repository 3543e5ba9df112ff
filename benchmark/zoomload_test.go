package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/server"
	"repro/zoom/client"
)

// smallDef is a corpus small enough to generate in milliseconds.
var smallDef = corpusDef{seed: 5, parts: []corpusPart{
	{gen.Class3(), gen.Medium(), 3},
	{gen.Class2(), gen.Medium(), 3},
}}

// tapeBytes is a tape as bytes: what goes on the wire, in what order, when.
func tapeBytes(t *tape) []byte {
	var b bytes.Buffer
	for i, u := range t.units {
		for _, k := range u {
			b.Write(t.wire[k])
		}
		if t.due != nil {
			_ = binary.Write(&b, binary.LittleEndian, int64(t.due[i]))
		}
	}
	return b.Bytes()
}

func TestTapesAreSeeded(t *testing.T) {
	small, err := generate(smallDef)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := generate(workloadNamed("hot-small").corpus)
	if err != nil {
		t.Fatal(err)
	}
	builders := map[string]func(seed int64) (*tape, error){
		"hot-small":   func(seed int64) (*tape, error) { return hotSmallTape(hot, seed, 2, 1000) },
		"cold-deep":   func(seed int64) (*tape, error) { return coldDeepTape(small, seed, 500) },
		"view-switch": func(seed int64) (*tape, error) { return viewSwitchTape(small, seed, 100) },
	}
	for name, build := range builders {
		a, err := build(7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, _ := build(7)
		c, _ := build(8)
		if len(a.units) == 0 {
			t.Fatalf("%s: empty tape", name)
		}
		if !bytes.Equal(tapeBytes(a), tapeBytes(b)) {
			t.Errorf("%s: the same seed gave two different tapes", name)
		}
		if bytes.Equal(tapeBytes(a), tapeBytes(c)) {
			t.Errorf("%s: two seeds gave the same tape", name)
		}
	}

	// hot-small holds every key as often for one seed as for another: only
	// the order and the arrival times differ.
	count := func(tp *tape) map[int32]int {
		n := make(map[int32]int)
		for _, u := range tp.units {
			n[u[0]]++
		}
		return n
	}
	a, _ := builders["hot-small"](1)
	b, _ := builders["hot-small"](2)
	ca, cb := count(a), count(b)
	if len(ca) == 0 || len(ca) > hotKeys || fmt.Sprint(ca) != fmt.Sprint(cb) {
		t.Errorf("hot-small: key counts differ between seeds (%d and %d distinct keys)", len(ca), len(cb))
	}
	if ca[0] <= ca[100] || ca[100] < ca[2000] {
		t.Errorf("hot-small: popularity does not fall with rank: %d, %d, %d", ca[0], ca[100], ca[2000])
	}
}

func TestStratifiedCoversRunsEvenly(t *testing.T) {
	c, err := generate(smallDef)
	if err != nil {
		t.Fatal(err)
	}
	picks := stratified(c, newRand(3), math.MaxInt)
	total := 0
	for _, r := range c.runs {
		total += len(r.data) - 1 // the warm-up query's data is left out
	}
	if len(picks) != total {
		t.Fatalf("%d picks, corpus has %d", len(picks), total)
	}
	seen := make(map[string]bool)
	for _, p := range picks {
		id := c.runs[p.run].id + " " + p.data
		if seen[id] {
			t.Fatalf("%s picked twice", id)
		}
		seen[id] = true
		if p.data == warmQuery(&c.runs[p.run]).Data {
			t.Fatalf("%s is the warm-up query's data", id)
		}
	}
	// Any quarter of the tape holds about a quarter of each run.
	quarter := picks[len(picks)/4 : len(picks)/2]
	perRun := make([]int, len(c.runs))
	for _, p := range quarter {
		perRun[p.run]++
	}
	for i, r := range c.runs {
		want := float64(len(r.data)-1) / 4
		if math.Abs(float64(perRun[i])-want) > stratifiedBands+1 {
			t.Errorf("run %s: %d picks in the second quarter, want about %.1f", r.id, perRun[i], want)
		}
	}
}

func TestPercentileAndSpread(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.1, 1}, {0.01, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing is a number")
	}
	sp := spreadOf([]float64{4, 2, 3, 5, 6})
	if sp != (spread{Min: 2, Median: 4, Max: 6}) {
		t.Errorf("spreadOf = %+v", sp)
	}
	if got := sp.rel(); got != 1 {
		t.Errorf("rel = %v, want 1", got)
	}
	for _, c := range []struct {
		off  float64
		want int
	}{{0, 0}, {1.99, 0}, {2, 1}, {9.99, 4}, {10, 4}, {12, 4}} {
		if got := sliceOf(c.off, 10, 5); got != c.want {
			t.Errorf("sliceOf(%v) = %d, want %d", c.off, got, c.want)
		}
	}
}

// TestOpenLoopChargesAStall plays an open-loop tape against a server that
// stalls on its first request. The requests that were due during the stall
// are sent late, and their latency is counted from when they were due: the
// stall is charged to each of them, not only to the request that hit it.
func TestOpenLoopChargesAStall(t *testing.T) {
	const stall = 150 * time.Millisecond
	first := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first {
			first = false
			time.Sleep(stall)
		}
		w.Header().Set(client.TraceIDHeader, "0123456789abcdef")
		fmt.Fprint(w, "{}")
	}))
	defer srv.Close()

	tp := &tape{}
	k, err := tp.render(client.QueryRequest{Run: "r", Data: "d"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		tp.units = append(tp.units, []int32{k})
		tp.due = append(tp.due, time.Duration(i)*2*time.Millisecond)
	}
	lr := drive(context.Background(), srv.URL, tp, 1, time.Hour, oracleEvery, false)
	if n := failures(lr); n != 0 || len(lr.samples) != 20 {
		t.Fatalf("%d samples, %d failures", len(lr.samples), n)
	}
	for i, s := range lr.samples {
		if s.at != tp.due[i] {
			t.Fatalf("sample %d is timed from %v, was due at %v", i, s.at, tp.due[i])
		}
	}
	// Request 10 was due 20 ms in and could not be sent before the stall
	// ended at 150 ms.
	if s := lr.samples[10]; s.late < 100*time.Millisecond || s.lat < s.late {
		t.Errorf("request due during the stall: late %v, latency %v; want both over 100ms", s.late, s.lat)
	}
	if s := lr.samples[0]; s.late > 50*time.Millisecond || s.lat < stall {
		t.Errorf("the stalled request itself: late %v, latency %v", s.late, s.lat)
	}
}

func TestSelfTimesSumToTheOuterRung(t *testing.T) {
	// Request r spends (k+1)*(r+1) us in layer k, so rung k lasts the sum
	// of the layers up to k. Request 2 is missing its outermost rung.
	var spans []span
	for r := 0; r < 3; r++ {
		total := int64(0)
		for k, name := range rungs {
			total += int64((k + 1) * (r + 1) * 1000)
			if r == 2 && k == len(rungs)-1 {
				continue
			}
			spans = append(spans, span{Name: name, Req: r, Start: 5000, End: 5000 + total})
		}
	}
	spans = append(spans, span{Name: spanWindow, Req: 0, Start: 0, End: 99})
	self, reqs := selfTimes(spans)
	if len(reqs) != 2 {
		t.Fatalf("paired requests %v, want 0 and 1", reqs)
	}
	for i, r := range reqs {
		var sum float64
		for k := range rungs {
			if want := float64((k + 1) * (r + 1)); self[k][i] != want {
				t.Errorf("request %d layer %d: self %v, want %v", r, k, self[k][i], want)
			}
			sum += self[k][i]
		}
		if outer := float64(21 * (r + 1)); sum != outer {
			t.Errorf("request %d: layers sum to %v, outer rung is %v", r, sum, outer)
		}
	}
}

// Captured from a running `zoom router` child and its /metrics.
const (
	procStatFixture   = "4242 (zoom (router) x) S 4200 4242 4200 34816 4242 4194560 1853 0 0 0 137 45 0 0 20 0 8 0 1234567 1268101120 5120 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
	procStatusFixture = "Name:\tzoom\nUmask:\t0022\nState:\tS (sleeping)\nVmPeak:\t 1238380 kB\nVmSize:\t 1238380 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   19004 kB\nThreads:\t8\n"
	promFixture       = `# HELP zoom_router_cache_hits router.cache_hits
# TYPE zoom_router_cache_hits counter
zoom_router_cache_hits 1177
zoom_router_cache_hits{shard="0"} 600
zoom_router_cache_hits{shard="1"} 577
# TYPE zoom_router_request_ns histogram
zoom_router_request_ns_bucket{le="+Inf"} 1500
zoom_router_request_ns_sum 1.25e+09
zoom_runtime_info{go="go1.24.0",commit="d20929e"} 1
`
)

func TestScrapers(t *testing.T) {
	cpu, err := parseProcStat(procStatFixture)
	if err != nil || cpu != (137+45)*10000 {
		t.Errorf("parseProcStat = %d, %v; want %d", cpu, err, (137+45)*10000)
	}
	if _, err := parseProcStat("4242 zoom S"); err == nil {
		t.Error("parseProcStat accepted a line without a command field")
	}
	if us, err := parseSchedstat("362912123 94009 2\n"); err != nil || us != 362912 {
		t.Errorf("parseSchedstat = %d, %v", us, err)
	}
	if _, err := parseSchedstat("12 34\n"); err == nil {
		t.Error("parseSchedstat accepted two fields")
	}
	hwm, err := parseVmHWM(procStatusFixture)
	if err != nil || hwm != 20480*1024 {
		t.Errorf("parseVmHWM = %d, %v", hwm, err)
	}
	if _, err := parseVmHWM("Name:\tzoom\n"); err == nil {
		t.Error("parseVmHWM found a peak in a status without one")
	}
	series, err := parseProm([]byte(promFixture))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"zoom_router_cache_hits":                            1177,
		`zoom_router_cache_hits{shard="1"}`:                 577,
		`zoom_router_request_ns_bucket{le="+Inf"}`:          1500,
		"zoom_router_request_ns_sum":                        1.25e9,
		`zoom_runtime_info{go="go1.24.0",commit="d20929e"}`: 1,
	} {
		if got, ok := series[name]; !ok || got != want {
			t.Errorf("series %s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	if _, err := parseProm([]byte("zoom_router_cache_hits many\n")); err == nil {
		t.Error("parseProm accepted a value that is not a number")
	}
	// The benchmark's own process is always there to be read.
	if _, err := selfCPU(); err != nil {
		t.Errorf("selfCPU: %v", err)
	}
	if _, err := procCPUTicks(os.Getpid()); err != nil {
		t.Errorf("procCPUTicks: %v", err)
	}
	if _, err := procHWM(os.Getpid()); err != nil {
		t.Errorf("procHWM: %v", err)
	}
}

// TestOracle answers a tape in process through the worker's own handler
// and checks the oracle accepts every answer, and rejects one that lost an
// element of its result.
func TestOracle(t *testing.T) {
	c, err := generate(smallDef)
	if err != nil {
		t.Fatal(err)
	}
	wh, _, err := c.ingest()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(obs.NewRegistry(), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetEngine(provenance.NewEngine(wh))
	tp, err := viewSwitchTape(c, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	r0 := &c.runs[0]
	for _, kind := range []string{"immediate", "derived"} {
		k, err := tp.render(client.QueryRequest{Run: r0.id, Data: r0.data[len(r0.data)/2], Kind: kind, View: viewUBio})
		if err != nil {
			t.Fatal(err)
		}
		tp.units = append(tp.units, []int32{k})
	}
	or := newOracle(wh)
	var deep []byte
	for k := range tp.keys {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", queryPath, bytes.NewReader(tp.body[k])))
		if rec.Code != 200 {
			t.Fatalf("%+v: status %d: %s", tp.keys[k], rec.Code, rec.Body)
		}
		if err := or.check(&tp.keys[k], rec.Body.Bytes()); err != nil {
			t.Errorf("a correct answer was rejected: %v", err)
		}
		if k == 0 {
			deep = rec.Body.Bytes()
		}
	}
	var doc map[string]any
	if err := json.Unmarshal(deep, &doc); err != nil {
		t.Fatal(err)
	}
	result := doc["result"].(map[string]any)
	data := result["data"].([]any)
	if len(data) == 0 {
		t.Fatal("the first answer has no data to lose")
	}
	result["data"] = data[1:]
	tampered, _ := json.Marshal(doc)
	if err := or.check(&tp.keys[0], tampered); err == nil {
		t.Error("an answer that lost a data object was accepted")
	}
	if err := or.check(&tp.keys[0], []byte("{not json")); err == nil {
		t.Error("a body that is not JSON was accepted")
	}
}

func TestJudge(t *testing.T) {
	def := metricDef{Name: "p50_ms", Unit: "ms", Better: lower, Bound: 0.08}
	run := func(v float64, sp spread) *result {
		return &result{Workload: "w", Metrics: map[string]float64{"p50_ms": v}, Spreads: map[string]spread{"p50_ms": sp}}
	}
	tight := spread{Min: 0.99, Median: 1, Max: 1.02}
	wide := spread{Min: 0.9, Median: 1, Max: 1.1}
	for _, c := range []struct {
		name       string
		base, cand *result
		want       string
	}{
		{"within the bound", run(1, tight), run(1.05, tight), statusOK},
		{"better", run(1, tight), run(0.5, tight), statusOK},
		{"worse than the bound", run(1, tight), run(1.1, tight), statusBreach},
		{"within the bound, but the runs cannot tell", run(1, tight), run(1.05, wide), statusUnresolved},
		{"worse than the bound even so", run(1, wide), run(1.2, wide), statusBreach},
	} {
		if got := judge(def, c.base, c.cand).status; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	up := metricDef{Name: "p50_ms", Better: higher, Bound: 0.08}
	if got := judge(up, run(100, tight), run(90, tight)).status; got != statusBreach {
		t.Errorf("a higher-is-better metric that fell 10%%: %s", got)
	}
}

func TestContractLine(t *testing.T) {
	res := &result{Workload: "w", Attempted: 3, Metrics: map[string]float64{}}
	if _, err := contractLine(res); err == nil {
		t.Error("a run with no metrics printed a result")
	}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = 1.5
	}
	line, err := contractLine(res)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(line), &doc); err != nil || strings.Contains(line, "\n") {
		t.Fatalf("not one line of JSON: %v: %s", err, line)
	}
	if doc.Correct == nil || doc.Attempted == nil || doc.Failed == nil || len(doc.Metrics) != len(endToEnd) {
		t.Errorf("wrong keys: %s", line)
	}
	res.Metrics["p50_ms"] = math.NaN()
	if _, err := contractLine(res); err == nil {
		t.Error("a NaN metric was printed")
	}
}

// TestCatalogueMatchesBenchmarkJSON holds BENCHMARK.json, which the driver
// reads, to the tables the program prints from.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark: ", err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(doc.EndToEnd) != fmt.Sprint(endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", doc.EndToEnd, endToEnd)
	}
	if fmt.Sprint(doc.PerLayer) != fmt.Sprint(perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", doc.PerLayer, perLayer)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if doc.Workloads[i].Name != wl.name || doc.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: json %+v, code %s: %s", i, doc.Workloads[i], wl.name, wl.why)
		}
	}
}
