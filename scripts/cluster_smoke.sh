#!/usr/bin/env sh
# End-to-end smoke test for the sharded deployment: build the CLI, split the
# example warehouse into 2 shard snapshots with `zoom snapshot shard`, boot a
# worker per shard plus `zoom router` in front, and check the full scale-out
# surface — routed queries, the merged run catalog, aggregated readiness,
# trace-id propagation through the hop, and the dead-worker path (fast 502
# naming the dead shard while the survivor keeps answering). A second phase
# reboots the cluster with two replicas per shard and checks replica-aware
# routing: killing one replica must lose ZERO queries (failover), repeated
# identical queries must hit the router response cache, and only killing
# the sibling too brings the 502 back. Exits non-zero on the first failed
# check.
set -eu

workdir=$(mktemp -d)
pids=""
cleanup() {
    for p in $pids; do
        kill "$p" 2>/dev/null || true
    done
    for p in $pids; do
        wait "$p" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

fail() {
    echo "cluster-smoke: FAIL: $*" >&2
    for log in "$workdir"/*.log; do
        echo "--- $log ---" >&2
        cat "$log" >&2 || true
    done
    exit 1
}

# Wait for the "listening on http://..." line a zoom process prints and
# echo the base URL.
wait_listen() {
    _log=$1
    _pid=$2
    _base=""
    for _ in $(seq 1 50); do
        _base=$(sed -n 's!.*listening on \(http://[0-9.:]*\).*!\1!p' "$_log" | head -1)
        [ -n "$_base" ] && break
        kill -0 "$_pid" 2>/dev/null || return 1
        sleep 0.1
    done
    [ -n "$_base" ] && echo "$_base"
}

echo "cluster-smoke: building zoom"
go build -o "$workdir/zoom" ./cmd/zoom

echo "cluster-smoke: creating and sharding the example warehouse"
"$workdir/zoom" example -warehouse "$workdir/wh.json" >/dev/null
"$workdir/zoom" snapshot shard -in "$workdir/wh.json" -n 2 >/dev/null
[ -f "$workdir/wh.json.shard0" ] || fail "missing shard0 snapshot"
[ -f "$workdir/wh.json.shard1" ] || fail "missing shard1 snapshot"

"$workdir/zoom" serve -warehouse "$workdir/wh.json.shard0" -addr 127.0.0.1:0 \
    -expvar "" >"$workdir/worker0.log" 2>&1 &
w0_pid=$!
pids="$pids $w0_pid"
"$workdir/zoom" serve -warehouse "$workdir/wh.json.shard1" -addr 127.0.0.1:0 \
    -expvar "" >"$workdir/worker1.log" 2>&1 &
w1_pid=$!
pids="$pids $w1_pid"
w0=$(wait_listen "$workdir/worker0.log" "$w0_pid") || fail "worker 0 never listened"
w1=$(wait_listen "$workdir/worker1.log" "$w1_pid") || fail "worker 1 never listened"
echo "cluster-smoke: workers at $w0 $w1"

# Worker order is shard order: shard0 first.
"$workdir/zoom" router -addr 127.0.0.1:0 -workers "$w0,$w1" \
    -health-interval 200ms >"$workdir/router.log" 2>&1 &
router_pid=$!
pids="$pids $router_pid"
base=$(wait_listen "$workdir/router.log" "$router_pid") || fail "router never listened"
echo "cluster-smoke: router at $base"

# Aggregated readiness: 200 only once every shard is ready.
for _ in $(seq 1 50); do
    if curl -fsS "$base/readyz" 2>/dev/null | grep -q '"ready":true'; then
        ready=1
        break
    fi
    sleep 0.1
done
[ "${ready:-}" = 1 ] || fail "router /readyz never became ready"
echo "cluster-smoke: cluster ready"

# The merged catalog holds the example run wherever the ring placed it.
curl -fsS "$base/v1/runs" >"$workdir/runs.json" || fail "GET /v1/runs"
grep -q '"count":1' "$workdir/runs.json" || fail "merged catalog count != 1"
grep -q '"id":"fig2"' "$workdir/runs.json" || fail "merged catalog misses fig2"

# A routed deep query through the named joe view, with a caller-chosen
# trace id that must come back in the router's response header.
trace=cafe0123cafe0123
curl -fsS -D "$workdir/query.headers" -X POST -H 'Content-Type: application/json' \
    -H "X-Zoom-Trace-Id: $trace" \
    -d '{"run":"fig2","data":"d447","view":"joe"}' \
    "$base/v1/query" >"$workdir/query.json" || fail "routed POST /v1/query"
grep -qi "^x-zoom-trace-id: $trace" "$workdir/query.headers" || fail "trace id lost across the router hop"
grep -q '"trace_id"' "$workdir/query.json" && fail "routed answer body names its trace"
grep -q '"data":"d447"' "$workdir/query.json" || fail "routed query wrong payload"
echo "cluster-smoke: routed traced query ok"

# /v1/shards names both workers and their run counts.
curl -fsS "$base/v1/shards" >"$workdir/shards.json" || fail "GET /v1/shards"
grep -q '"shard":0' "$workdir/shards.json" || fail "shard 0 missing from /v1/shards"
grep -q '"shard":1' "$workdir/shards.json" || fail "shard 1 missing from /v1/shards"

# Dead-worker path: kill the worker that owns fig2, then the routed query
# must fail fast with a 502 naming its shard while /v1/runs still answers
# (flagged partial), and readiness drops to 503.
if curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"run":"fig2","data":"d447"}' "$w0/v1/query" >/dev/null 2>&1; then
    owner_pid=$w0_pid
    owner_shard=0
else
    owner_pid=$w1_pid
    owner_shard=1
fi
kill "$owner_pid"
wait "$owner_pid" 2>/dev/null || true
echo "cluster-smoke: killed shard $owner_shard worker"

status=$(curl -s -o "$workdir/dead.json" -w '%{http_code}' \
    -X POST -H 'Content-Type: application/json' \
    -d '{"run":"fig2","data":"d447"}' "$base/v1/query")
[ "$status" = 502 ] || fail "query on dead shard returned $status, want 502"
grep -q "shard $owner_shard" "$workdir/dead.json" || fail "502 does not name the dead shard"

curl -fsS "$base/v1/runs" >"$workdir/partial.json" || fail "GET /v1/runs with dead shard"
grep -q '"partial":true' "$workdir/partial.json" || fail "degraded catalog not flagged partial"
code=$(curl -s -o /dev/null -w '%{http_code}' "$base/readyz")
[ "$code" = 503 ] || fail "router /readyz with dead shard returned $code, want 503"
echo "cluster-smoke: dead shard fails fast, survivors keep answering"

# Graceful shutdown of the router.
kill -TERM "$router_pid"
wait "$router_pid" || fail "router exited non-zero on SIGTERM"
pids="$w0_pid $w1_pid"

# ---- Replica phase: 2 shards x 2 replicas, kill one replica, zero loss ----
# The shards are v3 this time, and the workers are not told so: a v3
# snapshot is always served from a memory map, which each log must report.
echo "cluster-smoke: booting replicated cluster (2 shards x 2 replicas, v3)"
"$workdir/zoom" snapshot shard -in "$workdir/wh.json" -n 2 -format v3 -out "$workdir/wh.v3" >/dev/null
for name in r0a r0b r1a r1b; do
    case $name in
        r0*) snap="$workdir/wh.v3.shard0" ;;
        *)   snap="$workdir/wh.v3.shard1" ;;
    esac
    "$workdir/zoom" serve -warehouse "$snap" -addr 127.0.0.1:0 \
        -expvar "" >"$workdir/$name.log" 2>&1 &
    eval "${name}_pid=$!"
    pids="$pids $!"
done
r0a=$(wait_listen "$workdir/r0a.log" "$r0a_pid") || fail "replica r0a never listened"
r0b=$(wait_listen "$workdir/r0b.log" "$r0b_pid") || fail "replica r0b never listened"
r1a=$(wait_listen "$workdir/r1a.log" "$r1a_pid") || fail "replica r1a never listened"
r1b=$(wait_listen "$workdir/r1b.log" "$r1b_pid") || fail "replica r1b never listened"
for name in r0a r0b r1a r1b; do
    mapped=""
    for _ in $(seq 1 50); do
        if grep -q 'mapped (v3 snapshot' "$workdir/$name.log"; then
            mapped=1
            break
        fi
        sleep 0.1
    done
    [ "$mapped" = 1 ] || fail "replica $name did not map its v3 shard"
done
echo "cluster-smoke: every replica mapped its v3 shard without -mmap"

# Replica groups: `;` separates shards, `,` separates replicas of a shard.
# -slow -1ms logs every request to /debug/slowlog so the stitched-trace
# check below can read the tree back out of the ring.
"$workdir/zoom" router -addr 127.0.0.1:0 -workers "$r0a,$r0b;$r1a,$r1b" \
    -health-interval 200ms -hedge 250ms -slow -1ms >"$workdir/router2.log" 2>&1 &
router2_pid=$!
pids="$pids $router2_pid"
base=$(wait_listen "$workdir/router2.log" "$router2_pid") || fail "replicated router never listened"
echo "cluster-smoke: replicated router at $base"

ready=""
for _ in $(seq 1 50); do
    if curl -fsS "$base/readyz" 2>/dev/null | grep -q '"ready":true'; then
        ready=1
        break
    fi
    sleep 0.1
done
[ "${ready:-}" = 1 ] || fail "replicated router /readyz never became ready"

# Repeated identical queries exercise the router response cache: the second
# answer is served from the router without a worker round trip.
body='{"run":"fig2","data":"d447","view":"joe"}'
curl -fsS -X POST -H 'Content-Type: application/json' -d "$body" \
    "$base/v1/query" >/dev/null || fail "replicated query (cache prime)"
curl -fsS -X POST -H 'Content-Type: application/json' -d "$body" \
    "$base/v1/query" >/dev/null || fail "replicated query (cache hit)"
curl -fsS "$base/metrics" >"$workdir/metrics2.txt" || fail "GET /metrics on replicated router"
grep -E '^zoom_router_cache_hits [1-9]' "$workdir/metrics2.txt" >/dev/null \
    || fail "router response cache recorded no hits"
# That hit was the answer's first, so it promoted the entry out of the
# cache's probation segment.
grep -E '^zoom_router_cache_promotions 1$' "$workdir/metrics2.txt" >/dev/null \
    || fail "zoom_router_cache_promotions is not 1 after one repeated query"
# The example's answers fit the cache's fair share, so none was declined;
# the counter is exported all the same, with its per-shard series.
grep -E '^zoom_router_cache_declined 0$' "$workdir/metrics2.txt" >/dev/null \
    || fail "zoom_router_cache_declined missing, or the example's small answers were declined"
grep -E '^zoom_router_cache_declined\{shard="0"\} ' "$workdir/metrics2.txt" >/dev/null \
    || fail "zoom_router_cache_declined has no per-shard series"
# Answers past probation's byte budget leave only their keys; an empty
# cache's first answer is within it, and the counter is exported all the
# same, with its per-shard series.
grep -E '^zoom_router_cache_noted [0-9]+$' "$workdir/metrics2.txt" >/dev/null \
    || fail "zoom_router_cache_noted missing"
grep -E '^zoom_router_cache_noted\{shard="0"\} ' "$workdir/metrics2.txt" >/dev/null \
    || fail "zoom_router_cache_noted has no per-shard series"
# The router's routes carry the same per-route instruments as a worker's.
grep -E '^zoom_router_query_status\{class="2xx"\} [1-9]' "$workdir/metrics2.txt" >/dev/null \
    || fail "router /metrics has no zoom_router_query_status{class=\"2xx\"} series"
echo "cluster-smoke: router response cache serving repeats"

# Stitched distributed trace: ?trace=1 through the router must return ONE
# span tree in the X-Zoom-Trace header, holding the router's spans
# (route.pick, cache.lookup, replica.attempt) with the worker's engine spans
# adopted under the winning attempt, the worker subtree naming its attempt
# via parent_span. d413 has not been asked yet, so this misses the cache.
strace=beefcafe01234567
tbody='{"run":"fig2","data":"d413","view":"joe"}'
curl -fsS -D "$workdir/stitched.headers" -X POST -H 'Content-Type: application/json' \
    -H "X-Zoom-Trace-Id: $strace" -d "$tbody" \
    "$base/v1/query?trace=1" >"$workdir/stitched.json" || fail "traced routed query"
grep -qi "^x-zoom-trace-id: $strace" "$workdir/stitched.headers" || fail "traced routed query lost its trace id"
grep -q '"trace"' "$workdir/stitched.json" && fail "traced routed answer carries a trace"
sed -n 's/^[Xx]-[Zz]oom-[Tt]race: //p' "$workdir/stitched.headers" >"$workdir/stitched.tree"
grep -q '"name":"route.pick"' "$workdir/stitched.tree" || fail "stitched tree misses route.pick"
grep -q '"name":"cache.lookup"' "$workdir/stitched.tree" || fail "stitched tree misses cache.lookup"
grep -q '"name":"replica.attempt"' "$workdir/stitched.tree" || fail "stitched tree misses replica.attempt"
grep -q '"name":"query.lookup"' "$workdir/stitched.tree" || fail "stitched tree misses the worker's query.lookup"
grep -q "\"parent_span\":\"$strace.a0\"" "$workdir/stitched.tree" \
    || fail "worker subtree does not name the router attempt it answered"
# The same traced request again is a router cache hit, and its tree says so.
curl -fsS -D "$workdir/hit.headers" -X POST -H 'Content-Type: application/json' -d "$tbody" \
    "$base/v1/query?trace=1" >"$workdir/hit.json" || fail "repeated traced routed query"
sed -n 's/^[Xx]-[Zz]oom-[Tt]race: //p' "$workdir/hit.headers" >"$workdir/hit.tree"
grep -q '"name":"cache.lookup","start_ns":[0-9]*,"dur_ns":[0-9]*,"tags":{"outcome":"hit"}' "$workdir/hit.tree" \
    || fail "repeated traced query was not a router cache hit"
cmp -s "$workdir/stitched.json" "$workdir/hit.json" || fail "cache hit differs from the traced miss"
# The same stitched tree sits in the router slowlog (threshold < 0).
curl -fsS "$base/debug/slowlog" >"$workdir/slowlog.json" || fail "GET /debug/slowlog"
grep -q "\"trace_id\":\"$strace\"" "$workdir/slowlog.json" || fail "traced request missing from router slowlog"
grep -q '"name":"replica.attempt"' "$workdir/slowlog.json" || fail "slowlog entry lost the span tree"
echo "cluster-smoke: stitched trace spans router and worker"

# Aggregated cluster stats: the workers' registries merge into one
# snapshot, unprefixed totals plus shard.<k>.-prefixed series.
curl -fsS "$base/v1/cluster/stats" >"$workdir/cstats.json" || fail "GET /v1/cluster/stats"
grep -q '"shards_ok":2' "$workdir/cstats.json" || fail "cluster stats shards_ok != 2"
grep -q '"http.requests"' "$workdir/cstats.json" || fail "merged snapshot misses http.requests"
grep -q '"shard.0.http.requests"' "$workdir/cstats.json" || fail "merged snapshot misses shard.0. series"
grep -q '"router.requests"' "$workdir/cstats.json" || fail "cluster stats misses the router's own snapshot"
# /v1/shards carries each replica's last health-poll reading.
curl -fsS "$base/v1/shards" >"$workdir/shards2.json" || fail "GET /v1/shards on replicated router"
grep -q '"last_poll_ns"' "$workdir/shards2.json" || fail "/v1/shards misses last_poll_ns"
echo "cluster-smoke: cluster stats aggregation ok"

# Kill the PREFERRED replica of the shard that owns fig2, then hammer the
# routed query: with a live sibling, not one request may fail.
if curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"run":"fig2","data":"d447"}' "$r0a/v1/query" >/dev/null 2>&1; then
    owner=0; pref_pid=$r0a_pid; sibl_pid=$r0b_pid
else
    owner=1; pref_pid=$r1a_pid; sibl_pid=$r1b_pid
fi
kill "$pref_pid"
wait "$pref_pid" 2>/dev/null || true
echo "cluster-smoke: killed preferred replica of shard $owner"

i=0
pad=" "
while [ "$i" -lt 20 ]; do
    # A body with one more trailing space is a new cache key (a query
    # string is not one: no answer depends on it), so each request takes
    # the failover path rather than a cached answer.
    status=$(curl -s -o "$workdir/failover.json" -w '%{http_code}' \
        -X POST -H 'Content-Type: application/json' \
        -d "$body$pad" "$base/v1/query")
    [ "$status" = 200 ] || fail "query $i after replica kill returned $status, want 200 (zero-loss failover)"
    pad="$pad "
    i=$((i + 1))
done
grep -q '"data":"d447"' "$workdir/failover.json" || fail "failover answer wrong payload"
code=$(curl -s -o /dev/null -w '%{http_code}' "$base/readyz")
[ "$code" = 200 ] || fail "replicated router /readyz with one dead replica returned $code, want 200"
curl -fsS "$base/metrics" >"$workdir/metrics3.txt" || fail "GET /metrics after replica kill"
grep -E '^zoom_router_failovers [1-9]' "$workdir/metrics3.txt" >/dev/null \
    || fail "replica kill recorded no failovers"
echo "cluster-smoke: 20/20 queries answered across the replica kill"

# Killing the sibling too exhausts shard $owner: now the 502 comes back.
kill "$sibl_pid"
wait "$sibl_pid" 2>/dev/null || true
status=$(curl -s -o "$workdir/dead2.json" -w '%{http_code}' \
    -X POST -H 'Content-Type: application/json' \
    -d '{"run":"fig2","data":"d447"}' "$base/v1/query")
[ "$status" = 502 ] || fail "query with both replicas dead returned $status, want 502"
grep -q "shard $owner" "$workdir/dead2.json" || fail "502 does not name the exhausted shard"
echo "cluster-smoke: exhausted shard fails fast once both replicas are gone"

# Graceful shutdown of the replicated router.
kill -TERM "$router2_pid"
wait "$router2_pid" || fail "replicated router exited non-zero on SIGTERM"
echo "cluster-smoke: PASS"
