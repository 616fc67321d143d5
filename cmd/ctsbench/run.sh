#!/usr/bin/env bash
# Builds ctsbench from source and runs it with the given arguments.  Run it
# from the repository root:
#
#   bash cmd/ctsbench/run.sh --workload cache_hits --seed 1 --seconds 10 --trace 0
#
# Everything it writes stays under .bench_build/ in the current directory:
# the binary, the Go build cache, and the servers' cache directories.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/config"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/cmd/ctsbench" && go build -o "$out/ctsbench" .)
exec "$out/ctsbench" "$@"
