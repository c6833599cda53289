#!/usr/bin/env bash
# Build, test, and regenerate every experiment table into bench_output.txt.
#
#   scripts/run_all.sh [--jobs N]
#
# --jobs (default: nproc) drives the build, ctest, and every figure's
# sweeps and benches. Tables are deterministic at any jobs count (the sweep
# engine aggregates in grid order), so bench_output.txt is comparable
# across machines and parallelism levels. Stderr stays on the console;
# only stdout lands in bench_output.txt.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc)"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --jobs)   jobs="$2"; shift 2 ;;
    --jobs=*) jobs="${1#--jobs=}"; shift ;;
    *) echo "usage: $0 [--jobs N]" >&2; exit 2 ;;
  esac
done

cmake -B build -G Ninja ||
  { echo "error: cmake configure failed (exit $?)" >&2; exit 1; }
cmake --build build -j "$jobs" ||
  { echo "error: build failed (exit $?)" >&2; exit 1; }
# `set -o pipefail` already fails the pipeline, but a bare `tee` exit hides
# which side died; say so explicitly and point at the transcript.
if ! ctest --test-dir build -j "$jobs" 2>&1 | tee test_output.txt; then
  echo "error: ctest failed — see test_output.txt for the failing tests" >&2
  exit 1
fi

# Every table in paper order (T1, F2-F14): scripts/figures.py runs each
# figure's dtncache_sweep grids and the few C++ sections under build/bench,
# and keeps each figure's JSONL records as <id>.jsonl next to
# bench_output.txt. A failing sweep or bench aborts it with the figure id
# and exit code — a partial bench_output.txt must never pass silently as a
# regenerated table set.
python3 scripts/figures.py --build build --jobs "$jobs" | tee bench_output.txt || {
  rc=${PIPESTATUS[0]}
  [[ "$rc" -ne 0 ]] || rc=1  # the script succeeded, so tee failed
  echo "error: scripts/figures.py failed (exit $rc); bench_output.txt is incomplete" >&2
  exit "$rc"
}
echo "done: test_output.txt, bench_output.txt, <figure id>.jsonl (jobs=$jobs)"
