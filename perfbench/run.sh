#!/usr/bin/env bash
# Builds the benchmark and nimble-serve from this checkout into .bench_build
# (the Go build cache included, so nothing is written outside the checkout),
# then runs the benchmark with the arguments given:
#
#   bash perfbench/run.sh --workload dynamic-mix --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOFLAGS="-mod=mod -buildvcs=false" GOWORK=off GOTOOLCHAIN=local
cd "$root/perfbench"
go build -o "$out/perfbench" .
go build -o "$out/nimble-serve" nimble/cmd/nimble-serve
cd "$root"
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$out/perfbench" -serve-bin "$out/nimble-serve" -commit "$commit" "$@"
