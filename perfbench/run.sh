#!/bin/sh
# Build the benchmark from source with dune and run it from the root of
# the checkout.  Arguments go to bench.exe:
#   sh perfbench/run.sh --workload update-heavy --seed 1 --seconds 10 --trace 0
# Build output goes to stderr, so the last line on stdout is the result;
# the shared dune cache is off so the build writes only inside the checkout.
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
