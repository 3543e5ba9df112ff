#!/usr/bin/env bash
# Entry point of the benchmark, run from the root of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds the benchmark from source and hands it the arguments. Everything
# it and the Go toolchain write stays under .bench_build/ in the checkout:
# the build cache, the toolchain's own per-user files, the binaries, and the
# temporary directory of the run.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" HOME="$build/home"
unset XDG_CONFIG_HOME XDG_CACHE_HOME
(cd "$here" && go build -o "$build/zoomload" .)
exec "$build/zoomload" -root "$root" "$@"
