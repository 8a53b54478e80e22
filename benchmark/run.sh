#!/usr/bin/env bash
# Entry point BENCHMARK.json names. Everything it writes stays inside the
# checkout: Go's build cache and temporary files go to .bench_build, and
# the store roots go to .bench_build/store, over which a private tmpfs is
# mounted (in a mount namespace of this run's own, so it is gone when the
# run ends) because the sandbox's disk does not repeat from run to run.
# Where mounting is not permitted the benchmark picks the store's place
# itself (see chooseStoreDir).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(dirname "$here")"
if [ ! -f "$repo/go.mod" ] || [ ! -d "$repo/cmd/davd" ]; then
	echo "benchmark: $repo is not the repository (no go.mod or cmd/davd); nothing to measure" >&2
	exit 2
fi
build="$repo/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/store"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/bench" .)

cd "$repo"
run=("$build/bench" "$@")
mounted='mount -t tmpfs -o size=2g tmpfs "$0" 2>/dev/null || true; exec "$@"'
for ns in "unshare -m" "unshare -rm"; do
	if $ns true 2>/dev/null; then
		exec $ns bash -c "$mounted" "$build/store" "${run[@]}"
	fi
done
exec "${run[@]}"
