#!/usr/bin/env bash
# Builds the benchmark and the repository's micro-benchmark test binaries
# from the sources in the current checkout, then runs one workload:
#
#   bash benchmark/run.sh --workload pair-ramp --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build output, the Go build cache
# and the temporary WAL directories stay under .bench_build/ in the
# checkout; a rebuild happens only when a .go or go.mod file changed.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "benchmark: $root is not the repository root (no go.mod/internal)" >&2
	exit 2
fi
out="$root/.bench_build/benchmark"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
export TMPDIR="$out/tmp"
mkdir -p "$TMPDIR"

stamp=$(find "$root" -path "$root/.bench_build" -prune -o -path "$root/.git" -prune -o \
	-type f \( -name '*.go' -o -name go.mod \) -print | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -d' ' -f1)
if [ ! -x "$out/bench" ] || [ "$(cat "$out/stamp" 2>/dev/null)" != "$stamp" ]; then
	rm -f "$out/stamp"
	(cd "$root/benchmark" && go build -o "$out/bench" .) >&2
	mkdir -p "$out/tests"
	# Test binaries holding the Benchmark* functions the traced run reuses.
	(cd "$root" && go test -c -o "$out/tests/repro.test" . &&
		go test -c -o "$out/tests/middleware.test" ./internal/middleware &&
		go test -c -o "$out/tests/cryptoutil.test" ./internal/cryptoutil) >&2
	echo "$stamp" >"$out/stamp"
fi
exec "$out/bench" "$@"
