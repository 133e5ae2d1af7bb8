#!/usr/bin/env bash
# Builds the daemon benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload fe3d-json --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (Go build
# cache, binary) stays under $CARGO_TARGET_DIR, default .bench_build, in
# the current directory. Build output goes to stderr so that the last line
# of stdout is the benchmark's JSON result.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

(
	cd perfbench
	env GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
		XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
		GOFLAGS= GOTELEMETRY=off \
		go build -o "$build/daemonbench" .
) >&2

exec "$build/daemonbench" "$@"
