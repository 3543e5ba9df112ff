#!/usr/bin/env sh
# End-to-end smoke test for `zoom serve`: build the CLI, create the example
# warehouse, boot the server on a free port, and poke every surface a
# deployment relies on — /healthz, /readyz, /metrics, a real query with its
# X-Zoom-Trace-Id header and X-Zoom-Trace span tree, and the slow-query log.
# Exits non-zero on the first failed check.
set -eu

workdir=$(mktemp -d)
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    [ -n "$server_pid" ] && wait "$server_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

fail() {
    echo "serve-smoke: FAIL: $*" >&2
    echo "--- server log ---" >&2
    cat "$workdir/serve.log" >&2 || true
    exit 1
}

echo "serve-smoke: building zoom"
go build -o "$workdir/zoom" ./cmd/zoom

echo "serve-smoke: creating example warehouse"
"$workdir/zoom" example -warehouse "$workdir/wh.json" >/dev/null

# `zoom query -trace` leaves stdout the untraced answer and prints the
# query's span tree on stderr, cold then warm: the cold lookup is a miss
# with the closure compute beneath it, the warm one a hit with none; the
# cold projection builds the view's mapping, the warm one reads it.
set -- query -warehouse "$workdir/wh.json" -run fig2 -data d447 -relevant M2,M3,M7
"$workdir/zoom" "$@" >"$workdir/plain.txt" || fail "zoom query"
"$workdir/zoom" "$@" -trace >"$workdir/traced.txt" 2>"$workdir/trees.txt" || fail "zoom query -trace"
cmp -s "$workdir/plain.txt" "$workdir/traced.txt" || fail "zoom query stdout differs under -trace"
sed -n '/^cold:$/,/^warm:$/p' "$workdir/trees.txt" >"$workdir/cold.txt"
sed -n '/^warm:$/,$p' "$workdir/trees.txt" >"$workdir/warm.txt"
grep -q '^    query.lookup .* outcome=miss$' "$workdir/cold.txt" || fail "cold tree: query.lookup is not a miss"
grep -q '^      closure.compute ' "$workdir/cold.txt" || fail "cold tree has no closure.compute under its lookup"
grep -q '^    query.project ' "$workdir/cold.txt" || fail "cold tree has no query.project"
grep -q '^      mapping.compute ' "$workdir/cold.txt" || fail "cold tree has no mapping.compute under its projection"
grep -q '^    query.lookup .* outcome=hit$' "$workdir/warm.txt" || fail "warm tree: query.lookup is not a hit"
grep -q 'closure.compute' "$workdir/warm.txt" && fail "warm tree computes a closure"
grep -q '^    query.project ' "$workdir/warm.txt" || fail "warm tree has no query.project"
grep -q 'mapping.compute' "$workdir/warm.txt" && fail "warm tree builds a mapping"
echo "serve-smoke: zoom query -trace ok"

# -addr :0 binds a free port; the server prints the bound address on stderr.
"$workdir/zoom" serve -warehouse "$workdir/wh.json" -addr 127.0.0.1:0 \
    -slow -1ns -expvar "" >"$workdir/serve.log" 2>&1 &
server_pid=$!

base=""
for _ in $(seq 1 50); do
    base=$(sed -n 's!.*listening on \(http://[0-9.:]*\).*!\1!p' "$workdir/serve.log" | head -1)
    [ -n "$base" ] && break
    kill -0 "$server_pid" 2>/dev/null || fail "server exited during startup"
    sleep 0.1
done
[ -n "$base" ] && echo "serve-smoke: server at $base" || fail "no listening line in server log"

# Health answers immediately; readiness may lag the warehouse load.
curl -fsS "$base/healthz" | grep -q ok || fail "/healthz"
for _ in $(seq 1 50); do
    if curl -fsS "$base/readyz" 2>/dev/null | grep -q ready; then
        ready=1
        break
    fi
    sleep 0.1
done
[ "${ready:-}" = 1 ] || fail "/readyz never became ready"
echo "serve-smoke: healthy and ready"

# One deep query through the registered joe view, traced: the span tree
# comes back in the X-Zoom-Trace header, never in the body.
curl -fsS -D "$workdir/headers" -o "$workdir/query.json" \
    -X POST -H 'Content-Type: application/json' \
    -d '{"run":"fig2","data":"d447","view":"joe"}' \
    "$base/v1/query?trace=1" || fail "POST /v1/query"
# The trace id travels in the header only; the answer names no trace and
# carries no timings.
hdr_id=$(sed -n 's/^[Xx]-[Zz]oom-[Tt]race-[Ii]d: \([0-9a-f]\{16\}\).*/\1/p' "$workdir/headers" | head -1)
[ -n "$hdr_id" ] || fail "no X-Zoom-Trace-Id header"
grep -q -e '"trace_id"' -e '"timing"' -e '"trace"' "$workdir/query.json" && fail "answer body carries trace_id, timing or a trace"
sed -n 's/^[Xx]-[Zz]oom-[Tt]race: //p' "$workdir/headers" >"$workdir/tree.json"
[ -s "$workdir/tree.json" ] || fail "traced query has no X-Zoom-Trace header"
# The cache outcome is a tag on the query.lookup span of the tree.
grep -q '"name":"query.lookup","start_ns":[0-9]*,"dur_ns":[0-9]*,"tags":{"outcome":"miss"}' "$workdir/tree.json" \
    || fail "first query's query.lookup span is not tagged as a cache miss"
grep -q '"name":"closure.compute"' "$workdir/tree.json" || fail "cold trace has no closure.compute span"
# The traced answer is the untraced one, byte for byte.
curl -fsS -o "$workdir/plain.json" -X POST -H 'Content-Type: application/json' \
    -d '{"run":"fig2","data":"d447","view":"joe"}' "$base/v1/query" || fail "untraced POST /v1/query"
cmp -s "$workdir/query.json" "$workdir/plain.json" || fail "traced answer differs from the untraced one"
echo "serve-smoke: traced query ok ($hdr_id)"

# The warehouse holds the one mapping the joe queries built, and says so.
curl -fsS "$base/v1/stats" >"$workdir/stats.json" || fail "GET /v1/stats"
grep -q '"Mappings":{"Entries":1,' "$workdir/stats.json" || fail "/v1/stats does not report the one mapping held"

# Metrics exposition carries the query that just ran.
curl -fsS "$base/metrics" >"$workdir/metrics.txt" || fail "GET /metrics"
grep -q '^# TYPE zoom_http_requests counter' "$workdir/metrics.txt" || fail "no request counter in /metrics"
grep -q '^zoom_server_ready 1' "$workdir/metrics.txt" || fail "server not ready in /metrics"
grep -q 'zoom_query_deep_total_ns_count{outcome="miss"} 1' "$workdir/metrics.txt" || fail "query miss not in /metrics"

# With -slow -1ns every request is slow; the log must hold the query.
curl -fsS "$base/debug/slowlog" >"$workdir/slowlog.json" || fail "GET /debug/slowlog"
grep -q '"route":"POST /v1/query"' "$workdir/slowlog.json" || fail "query missing from slow log"
grep -q "\"trace_id\":\"$hdr_id\"" "$workdir/slowlog.json" || fail "slow log lost the trace id"

# Graceful shutdown: SIGTERM must end the process cleanly.
kill -TERM "$server_pid"
wait "$server_pid" || fail "server exited non-zero on SIGTERM"
server_pid=""
echo "serve-smoke: PASS"
