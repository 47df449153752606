#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload worstcase-tail --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Everything the build and the
# run write stays under the build directory ($CARGO_TARGET_DIR when set,
# else .bench_build): the Go build cache, the go command's temporary work
# directories, the binary and serve-mixed's artifact store.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gotmp"

(
	cd perfbench
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
		XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod \
		go build -o "$build/perfbench" .
)
exec "$build/perfbench" --workdir "$build/tmp" "$@"
