#!/usr/bin/env bash
# Build the shipped binaries and the benchmark from source, then run
# the benchmark with the given arguments, from the root of a checkout:
#
#   bash bench/suite/run.sh --workload thm1_sweep --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; a failed build exits non-zero.  The
# shared dune cache is off so that building writes only under _build/.
set -euo pipefail
dune build --root . --display quiet --cache=disabled \
  bench/suite/suite.exe \
  bin/sweep_thm1.exe bin/sweep_thm2.exe bin/sweep_thm3.exe \
  bin/exhaust.exe bin/serve.exe bin/submit.exe >&2
exec ./_build/default/bench/suite/suite.exe "$@"
