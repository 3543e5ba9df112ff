package cluster

import (
	"context"
	"sync"
	"time"
)

// checkAll polls every replica's /readyz concurrently (bounded by the
// gather fan-out) and records the verdicts, including each worker's
// warehouse generation — a change bumps the shard's cache epoch so
// responses cached against the old data stop being served. It returns
// true when every shard has at least one ready replica. Both the
// periodic health loop and GET /readyz on the router run this, so
// readiness answers are live, not cached.
func (rt *Router) checkAll(ctx context.Context) bool {
	sem := make(chan struct{}, rt.fanout)
	var wg sync.WaitGroup
	for _, sh := range rt.shards {
		for _, rep := range sh.replicas {
			wg.Add(1)
			go func(sh *shard, rep *replica) {
				defer wg.Done()
				select {
				case sem <- struct{}{}:
				case <-ctx.Done():
					return
				}
				defer func() { <-sem }()
				hctx, cancel := context.WithTimeout(ctx, rt.gatherTimeout)
				defer cancel()
				t0 := time.Now()
				rz, err := rep.cl.Ready(hctx)
				rep.recordPoll(time.Since(t0), err)
				if err != nil {
					rep.setHealth(false, 0, 0)
					return
				}
				rt.observeGeneration(sh, rep, rz.Generation)
				rep.setHealth(rz.Ready, rz.RunsLoaded, rz.RunsTotal)
			}(sh, rep)
		}
	}
	wg.Wait()
	allReady := true
	for _, sh := range rt.shards {
		ready := false
		for _, rep := range sh.replicas {
			if rep.polled.Load() && rep.ready.Load() {
				ready = true
				break
			}
		}
		if !ready {
			allReady = false
		}
	}
	return allReady
}

// observeGeneration records the generation a poll or a forwarded answer
// reported for rep; a change bumps the shard's cache epoch, so answers cached
// against the old data stop being served.
func (rt *Router) observeGeneration(sh *shard, rep *replica, gen int64) {
	if rep.observeGeneration(gen) {
		sh.epoch.Add(1)
		rt.cacheInvals.Inc()
	}
}

// HealthLoop polls worker readiness every cfg.HealthInterval until ctx
// is cancelled. Run it in a goroutine next to Serve; the router also
// works without it (forwarding failures still trip the per-replica
// breakers), but join/leave detection — and cache invalidation on a
// worker reload — is then driven by traffic instead of polling.
func (rt *Router) HealthLoop(ctx context.Context) {
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	rt.checkAll(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.checkAll(ctx)
		}
	}
}
