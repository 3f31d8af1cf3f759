#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, e.g.
#   bash bench/run.sh --workload churn --seed 3 --seconds 12 --trace 0
# The binary, the Go build cache, temporary files and span files all stay in
# .bench_build at the repository root, so a run writes nothing elsewhere.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # the go command's telemetry and env file
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/bench" && go build -o "$out/syrep-bench" .)
cd "$root"
exec "$out/syrep-bench" "$@"
