package cluster

import (
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/zoom/client"
)

// replica is the router's view of one worker process serving a shard: its
// address, a typed client over the shared keep-alive pool, the last
// health verdict, and a circuit breaker over forwarding failures. A shard
// is served by one or more replicas holding identical shard snapshots;
// the breaker and health state are per-replica so one dead process never
// blacks out a shard that has a live sibling.
type replica struct {
	shard int // shard index on the ring
	index int // position within the shard's replica set (0 = preferred)
	base  string
	cl    *client.Client

	// polled flips once the first health check completes; until then the
	// router forwards optimistically (workers typically come up behind
	// the router, and the first real request is as good a probe as any),
	// but only after any sibling a poll has seen ready (candidates).
	polled atomic.Bool
	// ready is the last /readyz verdict (true = 200 with ready:true).
	ready atomic.Bool
	// loaded/total mirror the worker's reported load progress.
	loaded atomic.Int64
	total  atomic.Int64
	// gen is the last warehouse generation the worker reported on /readyz
	// or an answer (0 = never observed, or a pre-generation worker). The
	// value is opaque — only a change matters, and a change bumps the
	// shard's cache epoch.
	gen atomic.Int64

	// Circuit breaker: consecutive forwarding failures open the circuit
	// until openUntil (unix nanos); while open, the router prefers the
	// shard's other replicas and only fails fast when every replica is
	// out. After the cooldown the breaker is half-open: the next forward
	// is admitted, and its outcome closes or re-opens the circuit.
	fails     atomic.Int32
	openUntil atomic.Int64

	// Last health-poll reading: duration, completion time, and error
	// string (nil pointer when the poll succeeded). A flapping replica is
	// visible in /v1/shards between state transitions, not only when the
	// verdict flips.
	pollDurNs  atomic.Int64
	pollAtUnix atomic.Int64 // unix nanos of the last completed poll
	pollErr    atomic.Pointer[string]

	up       *obs.Gauge   // router.shard.<i>.replica.<j>.up: 1 when forwardable
	breaker  *obs.Gauge   // ...breaker_open: 1 while the circuit is open
	pollNs   *obs.Gauge   // ...poll_ns: latency of the last health poll
	attempts *obs.Counter // ...attempts: forward attempts sent here
	errors   *obs.Counter // ...errors: transport-failed attempts
}

// recordPoll stores one health-poll outcome.
func (r *replica) recordPoll(d time.Duration, err error) {
	r.pollDurNs.Store(d.Nanoseconds())
	r.pollAtUnix.Store(time.Now().UnixNano())
	if err != nil {
		msg := err.Error()
		r.pollErr.Store(&msg)
	} else {
		r.pollErr.Store(nil)
	}
	r.pollNs.Set(d.Nanoseconds())
}

// lastPoll returns the last poll's latency, completion time, and error
// string ("" when it succeeded); zero values before the first poll.
func (r *replica) lastPoll() (durNs, atUnixNs int64, errMsg string) {
	durNs = r.pollDurNs.Load()
	atUnixNs = r.pollAtUnix.Load()
	if p := r.pollErr.Load(); p != nil {
		errMsg = *p
	}
	return durNs, atUnixNs, errMsg
}

// available reports whether the router should attempt a forward: the
// breaker is closed (or half-open past its cooldown) and the worker
// wasn't down at the last poll.
func (r *replica) available(now time.Time) bool {
	if now.UnixNano() < r.openUntil.Load() {
		return false
	}
	if r.polled.Load() && !r.ready.Load() {
		return false
	}
	return true
}

// state describes why a replica is unavailable ("" when it is available).
func (r *replica) state(now time.Time) string {
	if now.UnixNano() < r.openUntil.Load() {
		return "circuit open"
	}
	if r.polled.Load() && !r.ready.Load() {
		return "worker not ready"
	}
	return ""
}

// fail records one forwarding failure, opening the breaker at the
// configured threshold.
func (r *replica) fail(threshold int32, cooldown time.Duration) {
	if r.fails.Add(1) >= threshold {
		r.openUntil.Store(time.Now().Add(cooldown).UnixNano())
		r.breaker.Set(1)
	}
	r.setUp(false)
}

// ok resets the breaker after a successful forward.
func (r *replica) ok() {
	r.fails.Store(0)
	r.openUntil.Store(0)
	r.breaker.Set(0)
	r.setUp(true)
}

// setHealth records a health-poll verdict. A healthy verdict closes the
// breaker — this is the "join" path: a worker that was down (or is new)
// starts taking traffic again within one poll interval of answering
// /readyz.
func (r *replica) setHealth(ready bool, loaded, total int) {
	r.polled.Store(true)
	r.ready.Store(ready)
	r.loaded.Store(int64(loaded))
	r.total.Store(int64(total))
	if ready {
		r.fails.Store(0)
		r.openUntil.Store(0)
		r.breaker.Set(0)
	}
	r.setUp(ready)
}

// observeGeneration records the worker generation a health poll or an
// answer reported and reports whether it changed — i.e. the worker reloaded
// its warehouse or was replaced by a process serving different bytes —
// which must invalidate the router's cached responses for the shard. The
// first observation is not a change: an answer is stored only after its
// own generation was observed, so nothing was cached against another.
func (r *replica) observeGeneration(g int64) bool {
	if g == 0 {
		return false
	}
	old := r.gen.Swap(g)
	return old != 0 && old != g
}

func (r *replica) setUp(up bool) {
	if up {
		r.up.Set(1)
	} else {
		r.up.Set(0)
	}
}

// shard is one ring position: a set of replicas holding identical copies
// of the shard's snapshot, in preference order (index 0 first).
type shard struct {
	index    int
	replicas []*replica

	// epoch tags response-cache entries for this shard; it bumps when a
	// poll or an answer shows any replica's warehouse generation change,
	// so entries cached against the old data become unservable.
	epoch atomic.Uint64

	// Per-shard series (router.shard.<k>.*), folded into shard="<k>"
	// labels by the Prometheus renderer, next to the router's unlabeled
	// totals.
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	cacheDeclined *obs.Counter
	cacheNoted    *obs.Counter
	failovers     *obs.Counter
	hedges        *obs.Counter
	hedgeWins     *obs.Counter
}

// candidates returns the shard's available replicas, those a poll has seen
// ready before those no poll has seen yet, each group in preference order.
// A replica added to a running router is tried only after its polled
// siblings, until its first poll records its generation; a router that has
// polled nothing forwards in preference order.
func (s *shard) candidates(now time.Time) []*replica {
	out := make([]*replica, 0, len(s.replicas))
	var unpolled []*replica
	for _, r := range s.replicas {
		// polled is read once per replica: a first poll landing mid-scan
		// must not drop the replica from both groups.
		polled := r.polled.Load()
		switch {
		case !r.available(now):
		case polled:
			out = append(out, r)
		default:
			unpolled = append(unpolled, r)
		}
	}
	return append(out, unpolled...)
}

// available reports whether any replica can take a forward.
func (s *shard) available(now time.Time) bool {
	for _, r := range s.replicas {
		if r.available(now) {
			return true
		}
	}
	return false
}

// state describes why the shard is unavailable ("" when at least one
// replica is available), naming each replica's reason.
func (s *shard) state(now time.Time) string {
	var parts []string
	for _, r := range s.replicas {
		reason := r.state(now)
		if reason == "" {
			return ""
		}
		parts = append(parts, r.base+": "+reason)
	}
	return strings.Join(parts, "; ")
}

// ParseWorkers parses the -workers flag into replica groups: semicolons
// separate shards and commas separate replicas within a shard, so
// "a,b;c,d" is shard 0 with replicas a,b and shard 1 with replicas c,d.
// Without any semicolon the single-replica syntax from PR 8 still means
// what it meant: commas separate shards ("a,b" is two shards of one
// replica each). A trailing semicolon forces grouped parsing, so "a,b;"
// is one shard with two replicas.
func ParseWorkers(s string) [][]string {
	if !strings.Contains(s, ";") {
		var out [][]string
		for _, w := range splitTrim(s, ",") {
			out = append(out, []string{w})
		}
		return out
	}
	var out [][]string
	for _, group := range strings.Split(s, ";") {
		reps := splitTrim(group, ",")
		if len(reps) > 0 {
			out = append(out, reps)
		}
	}
	return out
}

func splitTrim(s, sep string) []string {
	var out []string
	for _, p := range strings.Split(s, sep) {
		if t := strings.TrimSpace(p); t != "" {
			out = append(out, t)
		}
	}
	return out
}
