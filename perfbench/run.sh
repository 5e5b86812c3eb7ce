#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; every
# argument passes through (see perfbench/README.md). Run from the
# repository root. Build artefacts, the Go build cache and the Go
# command's own config and telemetry files stay under .bench_build (or
# $CARGO_TARGET_DIR), so the run writes nothing outside the checkout.
set -euo pipefail
root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
