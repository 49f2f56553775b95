#!/usr/bin/env bash
# run.sh builds the benchmark from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash ftbench/run.sh --workload local --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binary, the
# unix sockets and the span files of traced runs.
set -euo pipefail

if [[ ! -f go.mod || ! -f ftbench/go.mod ]]; then
  echo "run.sh: run from the repository root; need go.mod and ftbench/go.mod" >&2
  exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
  GOPATH="$build/gopath" HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
  GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd ftbench && go build -o "$build/ftbench" .)
exec "$build/ftbench" "$@"
