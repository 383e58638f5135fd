#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything the build writes — the binary, Go's build cache, its temporary
# and configuration files — stays in .bench_build/ at the root of the
# checkout, so a run reads and writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -buildvcs=false -o "$build/bench" .)
exec "$build/bench" "$@"
