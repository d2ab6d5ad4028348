#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source
# inside the checkout and runs it; everything it writes — Go's build
# cache and telemetry counters (XDG_CONFIG_HOME), temporary data
# directories, the binary — stays under .bench_build/ (and bench/out/
# for traces).
set -euo pipefail
root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp" "$build/gocache"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp GOWORK=off
export XDG_CONFIG_HOME=$build/config
(cd "$here" && go build -o "$build/nexus-bench" .)
exec "$build/nexus-bench" "$@"
