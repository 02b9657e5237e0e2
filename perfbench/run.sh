#!/usr/bin/env bash
# Builds the CEDR benchmark from the sources in this checkout and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The Go build cache, the binary and the
# benchmark's scratch files all live under .bench_build in the checkout.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "run.sh: run from the repository root; the CEDR module (go.mod) is not here" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/home" "$build/gocache" "$build/gopath"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
