#!/usr/bin/env bash
# The benchmark's one command: build the benchmark program (a module of its
# own, so the repository's `go build ./...` and `go test ./...` never see it),
# then run it. Everything it writes stays inside the checkout: the Go build
# cache, the toolchain's telemetry counters (which go under the user's config
# directory unless that is moved) and the binaries under .bench_build, data
# and traces under benchmark/out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="${GOCACHE:-$build/gocache}" XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/gsketch-benchmark" .)
exec "$build/gsketch-benchmark" -root "$root" "$@"
