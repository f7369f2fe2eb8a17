#!/usr/bin/env bash
# Builds the whpc benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload api_query --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Every build artifact (the binary, the Go
# build cache, scratch inputs) stays under .bench_build in that root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root; no module source found here" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build" "$@"
