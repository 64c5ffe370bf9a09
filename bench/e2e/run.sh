#!/usr/bin/env bash
# Build the end-to-end benchmark from source, then run it; every
# argument goes to e2e.exe.  Run from the repository root:
#
#   bash bench/e2e/run.sh --workload dpor-fig3 --seed 1 --seconds 30 --trace 0
#
# The build's own output goes to stderr, so the last line of stdout is
# the benchmark's JSON result.  The dune cache stays off: the build
# reads and writes nothing outside the checkout.
set -euo pipefail
dune build --root . --cache=disabled --display=quiet ./bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
