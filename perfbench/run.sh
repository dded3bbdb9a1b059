#!/usr/bin/env bash
# Build the benchmark and the iowpdb binary from source, then run the
# benchmark.  Run from the repository root:
#   bash perfbench/run.sh --workload serve-open-world --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/perfbench.exe ./bin/iowpdb_cli.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe --cli ./_build/default/bin/iowpdb_cli.exe "$@"
