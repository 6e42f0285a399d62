#!/usr/bin/env bash
# Builds the end-to-end benchmark and the wcojd daemon from this
# checkout, then runs one workload. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload analytics --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binaries, generated inputs,
# durable directories and trace files.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .) >&2
(cd "$root" && go build -o "$out/bin/wcojd" ./cmd/wcojd) >&2

exec "$out/bin/e2ebench" -wcojd "$out/bin/wcojd" -workdir "$out/run" "$@"
