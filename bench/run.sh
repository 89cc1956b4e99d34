#!/usr/bin/env bash
# Builds rtf-serve, rtf-gateway and the rtf-bench harness from source into
# bench/out/bin, then runs the harness with the given arguments. Everything it
# writes — the Go build cache included — stays under bench/out.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/bench/out"
mkdir -p "$out/bin" "$out/tmp"
export TMPDIR="$out/tmp" GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
# With telemetry in its default mode the go command leaves a child behind that
# outlives it (once a day per config dir, so in every fresh checkout): off.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/bin/" ./cmd/rtf-serve ./cmd/rtf-gateway
go build -C bench -o "$out/bin/rtf-bench" ./rtf-bench
exec "$out/bin/rtf-bench" "$@"
