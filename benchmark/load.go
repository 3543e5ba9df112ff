package main

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// oracleEvery is the stride of the answer oracle in a window: the body of
// every oracleEvery-th response a client reads is kept and checked after
// the window, outside the timed path.
const oracleEvery = 64

// sample is one request as the load generator saw it.
type sample struct {
	key  int32
	pos  int32         // position in its unit
	at   time.Duration // when it was due (open loop) or sent (closed loop), from the window start
	lat  time.Duration // until the last byte, from at
	late time.Duration // open loop: how long after it was due it was sent
	wire int64
	body int64
	ok   bool
	span bool // a span was recorded for it
}

// kept is a response body held back for the oracle.
type kept struct {
	key  int32
	body []byte
}

// loadResult is everything one window produced.
type loadResult struct {
	samples []sample
	kept    []kept
	elapsed time.Duration // window start until the last client stopped
	spans   []span
}

// drive plays a tape against base from the given number of connections,
// one goroutine each, and returns when the tape has run out or, in a closed
// loop, the window has passed. Units are handed out in tape order. With
// due times the loop is open: a unit is sent when it is due, or as soon
// after as a connection is free, and timed from when it was due, so a stall
// is charged to every request it delays. Without, the loop is closed: each
// connection sends its next unit as soon as the last one is answered. A
// unit begun inside the window is finished. The body of every keepEvery-th
// response a client reads is kept for the oracle. When spans is set, a span is
// recorded for each request of every second unit, so that the requests with
// and without one meet the system in the same state.
func drive(ctx context.Context, base string, t *tape, clients int, window time.Duration, keepEvery int, spans bool) loadResult {
	var next atomic.Int64
	results := make([]loadResult, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(res *loadResult) {
			defer wg.Done()
			c := newConn(base)
			defer c.close()
			var body bytes.Buffer
			seen := 0
			for ctx.Err() == nil {
				ui := int(next.Add(1)) - 1
				if ui >= len(t.units) {
					return
				}
				var due time.Duration
				if t.due != nil {
					due = t.due[ui]
					sleepUntil(start.Add(due))
				} else if time.Since(start) >= window {
					return
				}
				for pos, key := range t.units[ui] {
					sent := time.Now()
					s := sample{key: key, pos: int32(pos), at: sent.Sub(start)}
					if t.due != nil {
						s.at, s.late = due, sent.Sub(start)-due
					}
					seen++
					var keep *bytes.Buffer
					if seen%keepEvery == 0 {
						keep = &body
					}
					r, err := c.do(t.wire[key], keep)
					done := time.Now()
					s.lat = done.Sub(start) - s.at
					if err == nil {
						s.wire, s.body, s.ok = r.wire, r.body, r.ok()
						if keep != nil && s.ok {
							res.kept = append(res.kept, kept{key: key, body: append([]byte(nil), body.Bytes()...)})
						}
					}
					if spans && ui%2 == 1 {
						s.span = true
						res.spans = append(res.spans, span{Name: spanWindow, Req: ui*len(t.units[ui]) + pos,
							Start: sent.Sub(start).Nanoseconds(), End: done.Sub(start).Nanoseconds()})
					}
					res.samples = append(res.samples, s)
				}
			}
		}(&results[ci])
	}
	wg.Wait()
	out := loadResult{elapsed: time.Since(start)}
	for _, r := range results {
		out.samples = append(out.samples, r.samples...)
		out.kept = append(out.kept, r.kept...)
		out.spans = append(out.spans, r.spans...)
	}
	return out
}

// sleepUntil blocks the calling thread until t. time.Sleep parks the
// goroutine on the runtime's timers, which an idle process polls in whole
// milliseconds: at a thousand requests a second that alone made the
// generator half a millisecond late. nanosleep wakes within the kernel's
// timer slack, some 50 us.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps what is left
	}
}
