#!/usr/bin/env bash
# Builds bench_suite from this checkout's sources, then runs it with the
# given arguments from the checkout root, e.g.
#
#   bash bench_suite/run.sh --workload lpi_1rank --seed 1 --seconds 12 --trace 0
#
# The build lives in .bench_build/bench_suite; the first run configures and
# compiles (about a minute on 4 cores), later runs only check it is current.
# Build output goes to stderr so the result stays the last line of stdout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build/bench_suite"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja > /dev/null; then generator=(-G Ninja); fi
  cmake -S "$here" -B "$build" "${generator[@]}" >&2
fi
cmake --build "$build" -j "$(nproc)" --target bench_suite >&2
cd "$root"
exec "$build/bench_suite" "$@"
