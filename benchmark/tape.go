package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/zoom/client"
)

// A tape is the traffic of one run of an HTTP workload, fixed before the
// first request is sent. Keys are the distinct requests, rendered to wire
// bytes once; a unit is the sequence of keys one client sends back to back
// (one request, or the seven of a view-switch session). In an open loop,
// due[i] is when unit i is to be sent, as an offset from the window start.
type tape struct {
	keys  []client.QueryRequest
	body  [][]byte // JSON request bodies
	wire  [][]byte // whole HTTP requests to queryPath
	units [][]int32
	due   []time.Duration
}

const queryPath = "/v1/query"

// renderRequest renders a POST of a JSON body to path.
func renderRequest(path string, body []byte) []byte {
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: zoom\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		path, len(body))
	return append([]byte(head), body...)
}

// render appends a key to the tape and returns its index.
func (t *tape) render(q client.QueryRequest) (int32, error) {
	body, err := json.Marshal(q)
	if err != nil {
		return 0, fmt.Errorf("render request: %w", err)
	}
	t.keys = append(t.keys, q)
	t.body = append(t.body, body)
	t.wire = append(t.wire, renderRequest(queryPath, body))
	return int32(len(t.keys) - 1), nil
}

// requests is the number of requests on the tape.
func (t *tape) requests() int {
	n := 0
	for _, u := range t.units {
		n += len(u)
	}
	return n
}

// warmQuery is the query that first touches a run: deep provenance, under
// UAdmin, of the last data object a step of the run produced.
func warmQuery(r *corpusRun) client.QueryRequest {
	return client.QueryRequest{Run: r.id, Data: r.data[len(r.data)-1]}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// pick is one (run, data) choice.
type pick struct {
	run  int // index into corpus.runs
	data string
}

// stratifiedBands is how many contiguous bands a run's data is cut into.
// A deep answer grows with the position of its data in the run, so the
// band fixes most of a request's cost.
const stratifiedBands = 4

// stratified draws (run, data) pairs without replacement, every data
// object of the corpus as likely as any other, so that every stretch of the
// result holds each run, and the early, middle and late data of each run,
// in proportion to their sizes: the seed decides which data stands for a
// band and where bands fall against each other, and not how much work a
// stretch of the tape is. Item j of a shuffled band of n gets the position
// (j+u)/n, with u drawn once per band, and the tape is all items in order
// of position, cut at limit. The data of each run's warm-up query is left
// out, so a pick is never answered from what warm-up cached.
func stratified(c *corpus, rng *rand.Rand, limit int) []pick {
	type item struct {
		at float64
		pick
	}
	var items []item
	for ri := range c.runs {
		data := c.runs[ri].data[:len(c.runs[ri].data)-1]
		for b := 0; b < stratifiedBands; b++ {
			lo, hi := b*len(data)/stratifiedBands, (b+1)*len(data)/stratifiedBands
			band := append([]string(nil), data[lo:hi]...)
			rng.Shuffle(len(band), func(i, j int) { band[i], band[j] = band[j], band[i] })
			u := rng.Float64()
			for j, d := range band {
				items = append(items, item{at: (float64(j) + u) / float64(len(band)), pick: pick{run: ri, data: d}})
			}
		}
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].at < items[j].at })
	if len(items) > limit {
		items = items[:limit]
	}
	out := make([]pick, len(items))
	for i := range items {
		out[i] = items[i].pick
	}
	return out
}

// hotKeys is the size of hot-small's key set. With answers of a few KB it
// fits the router's default cache of 4,096 entries and 64 MiB.
const hotKeys = 2048

// zipfS is the exponent of hot-small's popularity law.
const zipfS = 1.1

// hotSmallTape is an open loop at rate requests per second over a fixed
// set of hotKeys keys with Zipf popularity. The key set and each key's
// rank belong to the corpus. The tape holds every key exactly as often as
// the law says for n draws, so hit ratio and bytes on the wire are the same
// for every seed; the seed shuffles the order and draws the Poisson
// arrival times.
func hotSmallTape(c *corpus, seed int64, seconds, rate float64) (*tape, error) {
	t := &tape{}
	krng := newRand(c.seed)
	seen := make(map[string]bool)
	for draws := 0; len(t.keys) < hotKeys; draws++ {
		if draws == 100*hotKeys {
			return nil, fmt.Errorf("hot-small: the corpus has fewer than %d distinct keys", hotKeys)
		}
		r := &c.runs[krng.Intn(len(c.runs))]
		cs := &c.specs[r.spec]
		q := client.QueryRequest{Run: r.id, Data: r.data[krng.Intn(len(r.data))]}
		switch k := krng.Intn(10); {
		case k == 8:
			q.Kind = "immediate"
		case k == 9:
			q.Kind = "derived"
		}
		switch krng.Intn(3) {
		case 1:
			q.View = viewUBio
		case 2:
			q.Relevant = cs.relevant[1]
		}
		id := fmt.Sprint(q.Run, q.Data, q.Kind, q.View, len(q.Relevant))
		if seen[id] {
			continue
		}
		seen[id] = true
		if _, err := t.render(q); err != nil {
			return nil, err
		}
	}

	cdf := make([]float64, hotKeys)
	var sum float64
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), zipfS)
		cdf[k] = sum
	}
	n := int(rate * seconds)
	rng := newRand(seed)
	t.units = make([][]int32, n)
	k := 0
	for j := 0; j < n; j++ {
		for cdf[k]/sum < (float64(j)+0.5)/float64(n) {
			k++
		}
		t.units[j] = []int32{int32(k)}
	}
	rng.Shuffle(n, func(i, j int) { t.units[i], t.units[j] = t.units[j], t.units[i] })
	t.due = make([]time.Duration, n)
	var at float64
	for j := range t.due {
		at += rng.ExpFloat64() / rate
		t.due[j] = time.Duration(at * float64(time.Second))
	}
	return t, nil
}

// coldDeepTape is deep provenance under UAdmin of distinct (run, data)
// pairs: no request can be answered from a cache.
func coldDeepTape(c *corpus, seed int64, limit int) (*tape, error) {
	t := &tape{}
	for _, p := range stratified(c, newRand(seed), limit) {
		k, err := t.render(client.QueryRequest{Run: c.runs[p.run].id, Data: p.data})
		if err != nil {
			return nil, err
		}
		t.units = append(t.units, []int32{k})
	}
	return t, nil
}

// sessionLen is the length of a view-switch session: the UAdmin query that
// computes the closure, then one query per other view on the same data.
var sessionLen = 1 + len(relevantPercents) + 2

// viewSwitchTape is sessions over distinct (run, data) pairs. The first
// request of a session asks under UAdmin; the rest ask for the same data
// under each relevant list, the ubio view and the black-box view.
func viewSwitchTape(c *corpus, seed int64, limit int) (*tape, error) {
	t := &tape{}
	for _, p := range stratified(c, newRand(seed), limit) {
		r := &c.runs[p.run]
		session := []client.QueryRequest{{Run: r.id, Data: p.data}}
		for _, rel := range c.specs[r.spec].relevant {
			session = append(session, client.QueryRequest{Run: r.id, Data: p.data, Relevant: rel})
		}
		session = append(session,
			client.QueryRequest{Run: r.id, Data: p.data, View: viewUBio},
			client.QueryRequest{Run: r.id, Data: p.data, View: viewBlackBox})
		unit := make([]int32, 0, len(session))
		for _, q := range session {
			k, err := t.render(q)
			if err != nil {
				return nil, err
			}
			unit = append(unit, k)
		}
		t.units = append(t.units, unit)
	}
	return t, nil
}

// warmTape is one warm-up query per run, in corpus order.
func warmTape(c *corpus) (*tape, error) {
	t := &tape{}
	for i := range c.runs {
		k, err := t.render(warmQuery(&c.runs[i]))
		if err != nil {
			return nil, err
		}
		t.units = append(t.units, []int32{k})
	}
	return t, nil
}
