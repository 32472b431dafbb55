#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs one workload:
#
#   bash perfbench/run.sh --workload <corpus|ingest|gateway|plan> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write (Go build cache, binary, scratch
# files, traces) stays under .bench_build/ at the repository root. A failed
# build exits non-zero before anything is measured.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
