#!/usr/bin/env bash
# Builds the end-to-end benchmark and the e2eperf daemon from the checkout
# it is run in, then runs one workload. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload abilene-table1 --seed 1 --seconds 30 --trace 0
#
# Build outputs and the Go build cache stay inside .bench_build/ of the
# checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/core || ! -d cmd/e2eperf || ! -f e2ebench/go.mod ]]; then
	echo "e2ebench: run from the root of a checkout of the repository" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(
	cd e2ebench
	go build -o "$out/e2ebench" .
	go build -o "$out/e2eperf" repro/cmd/e2eperf
) >&2
exec "$out/e2ebench" --bin "$out/e2eperf" "$@"
