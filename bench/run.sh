#!/usr/bin/env bash
# Builds the benchmark program from source and runs it from the repository
# root, passing every argument through. The build cache, the go command's
# config and telemetry directory, and the binary stay under .bench_build so
# a run touches nothing outside the checkout.
#
#   bash bench/run.sh --workload mixed_copy --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh -reps 5 -seed 1 -out bench/results/run.json
#   bash bench/run.sh -compare A.json B.json
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
(cd bench && go build -o "$out/chopimbench" .)
exec "$out/chopimbench" "$@"
