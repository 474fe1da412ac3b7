#!/bin/sh
# One benchmark run, from the root of a source checkout:
#
#   sh bench/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds perf.exe from source (quietly, output to stderr), then runs it:
# --trace 0 measures the end-to-end metrics, --trace 1 the per-layer ones.
# The last line of stdout is the JSON result.
set -eu

workload=
seed=1
seconds=10
trace=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload=$2 ;;
    --seed) seed=$2 ;;
    --seconds) seconds=$2 ;;
    --trace) trace=$2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
  shift 2
done
if [ -z "$workload" ]; then
  echo "run.sh: --workload is required" >&2
  exit 2
fi
case "$trace" in
  0) mode=run ;;
  1) mode=trace ;;
  *) echo "run.sh: --trace must be 0 or 1" >&2; exit 2 ;;
esac

# The shared dune cache lives outside the checkout; keep the build inside it.
DUNE_CACHE=disabled dune build --root . --display quiet ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$mode" "$workload" --seed "$seed" --seconds "$seconds"
