#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. Run it
# from the root of the repository, for example:
#
#   bash bench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the compiler's temporary files, the binary and the
# traced runs' span files all go to .bench_build/ under the current
# directory, so nothing is written outside the checkout. The build fails,
# and nothing runs, without the repository's own go.mod one directory up
# from bench/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" -spans "$out/spans" "$@"
