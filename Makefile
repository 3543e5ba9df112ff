# Build, test, and verification entry points. `make ci` is what the CI
# workflow runs; `make race` runs every test under the race detector and
# `make fuzz-smoke` the fuzz targets.

GO ?= go

.PHONY: all build vet test race fuzz-smoke tables bench bench-smoke pairs heap serve-smoke cluster-smoke loc ci

all: ci

build:
	$(GO) build ./...

# go vet, then the toolchain's gofmt: the step fails and lists the files
# when any tracked .go file is not gofmt-clean, and fails outright outside
# a git checkout, where there is no list of tracked files to check.
vet:
	$(GO) vet ./...
	@files="$$(git ls-files '*.go')"; \
	if [ -z "$$files" ]; then echo "vet: git ls-files lists no .go files; gofmt gate not run"; exit 1; fi; \
	unformatted="$$("$$($(GO) env GOROOT)/bin/gofmt" -l $$files </dev/null)" || exit 1; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# The whole suite under the race detector, so that a failure only -race
# shows (an allocation count, a data race in a test no name marks as
# concurrent) cannot hide. Tests whose allocation counts the detector
# changes skip those counts when raceEnabled.
race:
	$(GO) test -race ./...

# Short fuzzing passes over all thirteen fuzz targets; long runs are
# `go test -fuzz=FuzzConnectBy ./internal/warehouse/` etc. FuzzAppendResponse
# and FuzzAnswerTokens run without minimization: nearly every input reaches
# new coverage inside encoding/json, and minimizing each would leave a 10 s
# pass ~100 executions. FuzzRunBuilder does too: its seeds are whole runs,
# and minimizing one stalls the pass for seconds at a time. So do
# FuzzSnapshotV3, FuzzSnapshotLoad and FuzzDecode, whose seeds are whole
# snapshots and spec documents: with minimization both workers stop after
# the first new input, and a pass ends at a few thousand executions.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzConnectBy -fuzztime=10s ./internal/warehouse/
	$(GO) test -run='^$$' -fuzz=FuzzRelevUserViewBuilder -fuzztime=10s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzViewChecks -fuzztime=10s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotV3 -fuzztime=10s -fuzzminimizetime=0 ./internal/warehouse/
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotLoad -fuzztime=10s -fuzzminimizetime=0 ./internal/warehouse/
	$(GO) test -run='^$$' -fuzz=FuzzCompositeBuild -fuzztime=10s ./internal/composite/
	$(GO) test -run='^$$' -fuzz=FuzzAppendResponse -fuzztime=10s -fuzzminimizetime=0 ./internal/server/
	$(GO) test -run='^$$' -fuzz=FuzzAnswerTokens -fuzztime=10s -fuzzminimizetime=0 ./internal/server/
	$(GO) test -run='^$$' -fuzz=FuzzRunBuilder -fuzztime=10s -fuzzminimizetime=0 ./internal/run/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeLine -fuzztime=10s ./internal/wflog/
	$(GO) test -run='^$$' -fuzz=FuzzRead -fuzztime=10s ./internal/wflog/
	$(GO) test -run='^$$' -fuzz=FuzzWriteLine -fuzztime=10s ./internal/wflog/
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=10s -fuzzminimizetime=0 ./internal/spec/

# The paper's Section V tables (plus the ablations and the minimal-vs-
# minimum gap): rewrites internal/bench/testdata/tables.golden, which
# TestPaperTablesUnchanged compares on every `go test ./...`, then prints
# the tables with their timings as text.
tables:
	$(GO) test ./internal/bench -run '^TestPaperTablesUnchanged$$' -update
	$(GO) run ./cmd/zoombench

# The repository's benchmark, zoomload (benchmark/README.md): all four
# workloads with 3 s windows against real `zoom serve`/`zoom router`
# processes, then the benchmark's own tests (a nested module, so `go test
# ./...` does not reach them).
bench:
	bash benchmark/run.sh --smoke && (cd benchmark && $(GO) test .)

# One iteration of every testing.B benchmark in bench_test.go: catches a
# benchmark that no longer builds, panics or fails its own assertions
# (BenchmarkHarnessEndToEnd runs the whole experiment registry) without
# paying benchmark time. The answer-path rows of EXPERIMENTS.md are
# `go test -run '^$$' -bench AnswerPath -benchmem .`, the closure row
# `-bench Closure`.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem .

# Alternated pairs of one benchmark workload, a parent revision against the
# working tree, e.g. `make pairs PARENT=HEAD~1 SEEDS=501,502,503`: both
# sides' medians and quartiles per end-to-end metric, the pairs the change
# won, and a verdict by ROADMAP's rule (at least ten pairs) and BENCHMARK.json's bounds
# (scripts/pairs.go), then the same figures for the per-layer metrics in
# ALSO. It writes only under .bench_build/pairs/.
WORKLOAD ?= ingest-restart
SEEDS ?= 501,502,503,504,505,506,507,508,509,510
ALSO ?= server.cpu_us_per_query,cluster.cpu_us_per_query,server.rss_mb,cluster.rss_mb
pairs:
	$(GO) run scripts/pairs.go -parent "$(PARENT)" -workload $(WORKLOAD) -seeds $(SEEDS) -also "$(ALSO)"

# What a cold-deep and a view-switch worker hold, structure by structure
# (runs, token tables, mappings, the closure cache), as live heap after GC,
# each against its ceiling: TestWorkerHeap with its table printed.
heap:
	$(GO) test -run '^TestWorkerHeap$$' -v .

# End-to-end smoke of `zoom serve`: boots the server on a free port against
# the example warehouse, then checks /healthz, /readyz, /metrics, a traced
# query (trace id header + span tree), the slow log, and SIGTERM shutdown.
serve-smoke:
	sh scripts/serve_smoke.sh

# End-to-end smoke of the sharded deployment: `zoom snapshot shard` into 2
# shards, a worker per shard, `zoom router` in front; checks routed traced
# queries, the merged catalog, aggregated readiness, and the dead-worker
# fast-502 path. A second phase runs 2 replicas per shard and checks
# zero-loss failover across a replica kill plus the router response cache.
cluster-smoke:
	sh scripts/cluster_smoke.sh

# The root module's Go lines, non-test then test, leaving out the nested
# benchmark module and its build directory: the count every change reports
# its delta in.
loc:
	@printf 'non-test %s\n' "$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | wc -l)"
	@printf 'test     %s\n' "$$(find . -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | wc -l)"

ci: vet build test race fuzz-smoke bench-smoke serve-smoke cluster-smoke bench
