#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload paper-ring16 --seed 1 --seconds 20 --trace 0
#
# Run from the root of the repository. Everything the build and the run
# write stays under .bench_build/ (Go's build cache included).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# The module replaces decentmon with the enclosing checkout; without it the
# build fails and nothing is printed on standard output.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null) ||
	commit="src-$(find "$root" -path "$out" -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)"

exec "$out/perfbench" -commit "$commit" "$@"
