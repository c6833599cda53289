#!/usr/bin/env bash
# Exercise the distributed sweep's crash story end to end (docs/sweep.md):
#
#   1. reference run: single-process `dtncache_sweep --jobs 4 --no-wall`;
#   2. --spool-init a store and start 2 spool workers on it; once a few
#      fragments are durable, SIGKILL one worker mid-sweep;
#   3. flip a byte in one durable fragment, as a dying disk would;
#   4. start a replacement worker with the default --lease-timeout: it
#      breaks the dead worker's lease at once (its pid is gone), drops the
#      corrupt fragment and re-runs that job, and the two live workers
#      finish the store;
#   5. --merge and byte-compare JSONL/CSV/trace against the reference (cmp).
#
# Exits non-zero the moment any step diverges — CI runs this as the
# `sweep-distributed` job, and it doubles as a local demo of the recipes
# in docs/sweep.md.
#
#   scripts/sweep_distributed_demo.sh [--bin PATH] [--workdir DIR]
#
#   --bin PATH     dtncache_sweep binary (default: build/apps/dtncache_sweep)
#   --workdir DIR  scratch directory (default: mktemp -d; kept on failure,
#                  removed on success unless explicitly provided)
set -euo pipefail
cd "$(dirname "$0")/.."

bin="build/apps/dtncache_sweep"
workdir=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --bin)       bin="$2"; shift 2 ;;
    --bin=*)     bin="${1#--bin=}"; shift ;;
    --workdir)   workdir="$2"; shift 2 ;;
    --workdir=*) workdir="${1#--workdir=}"; shift ;;
    *) echo "usage: $0 [--bin PATH] [--workdir DIR]" >&2; exit 2 ;;
  esac
done

[[ -x "$bin" ]] || {
  echo "error: $bin not found/executable — build it first:" >&2
  echo "  cmake -B build && cmake --build build --target dtncache_sweep" >&2
  exit 1
}

keep_workdir=0
if [[ -z "$workdir" ]]; then
  workdir="$(mktemp -d)"
else
  keep_workdir=1
  mkdir -p "$workdir"
fi

pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
}
trap cleanup EXIT

# The whole point is byte identity, so the reference run and the spool
# init must describe the SAME sweep: identical grid, --no-wall, and trace
# settings — they all feed the manifest fingerprint.
sweep_args=(--trace=infocom --days=20 --schemes=all --seeds=4 --no-wall
            --trace-filter=job_start,job_done)
jobs_total=28  # 7 schemes x 4 seeds

frag_count() { ls "$1/frags" 2>/dev/null | grep -c '\.frag$' || true; }

echo "== reference: single-process --jobs 4 =="
"$bin" "${sweep_args[@]}" --jobs=4 --quiet \
  --jsonl="$workdir/ref.jsonl" --csv="$workdir/ref.csv" \
  --trace-out="$workdir/ref.trace"

echo "== spool: init + 2 workers, SIGKILL one mid-sweep =="
store="$workdir/store"
# --trace-out here only marks the manifest as traced; --merge writes it.
"$bin" "${sweep_args[@]}" --store="$store" --spool-init --quiet \
  --trace-out="$workdir/sp.trace"
"$bin" --store="$store" --spool-worker --quiet & w1=$!; pids+=("$w1")
"$bin" --store="$store" --spool-worker --quiet & w2=$!; pids+=("$w2")

# Let some fragments become durable, then kill one worker outright
# (kill -9: no flush, no lease release).
for ((i = 0; i < 1200; ++i)); do
  [[ "$(frag_count "$store")" -ge 4 ]] && break
  sleep 0.05
done
kill -9 "$w1" 2>/dev/null || true
wait "$w1" 2>/dev/null || true
survivors="$(frag_count "$store")"
echo "   killed with $survivors/$jobs_total fragments durable"
[[ "$survivors" -ge 4 && "$survivors" -lt "$jobs_total" ]] || {
  echo "error: kill did not land mid-sweep ($survivors fragments) — grid too small for this host" >&2
  exit 1
}

echo "== corrupt one durable fragment =="
victim="$(ls "$store"/frags/*.frag | head -n 1)"
python3 - "$victim" <<'PY'
import sys
path = sys.argv[1]
data = bytearray(open(path, "rb").read())
data[-1] ^= 0x40  # inside the CRC-guarded body
open(path, "wb").write(data)
PY
echo "   flipped a byte in $(basename "$victim")"
python3 scripts/trace_summarize.py --sweep-store "$store"

echo "== replacement worker, default --lease-timeout =="
"$bin" --store="$store" --spool-worker --quiet & w3=$!; pids+=("$w3")
wait "$w2" || { echo "error: surviving spool worker failed" >&2; exit 1; }
wait "$w3" || { echo "error: replacement spool worker failed" >&2; exit 1; }
[[ "$(frag_count "$store")" -eq "$jobs_total" ]] || {
  echo "error: workers exited with $(frag_count "$store")/$jobs_total fragments" >&2
  exit 1
}
[[ -z "$(ls "$store" | grep '^lease-' || true)" ]] || {
  echo "error: lease files left behind in a complete store" >&2
  exit 1
}

echo "== merge and compare =="
"$bin" --store="$store" --merge --quiet \
  --jsonl="$workdir/sp.jsonl" --csv="$workdir/sp.csv" \
  --trace-out="$workdir/sp.trace"
for f in jsonl csv trace; do
  cmp "$workdir/ref.$f" "$workdir/sp.$f" || {
    echo "error: merged $f output differs from the single-process reference" >&2
    exit 1
  }
done
echo "   merged outputs byte-identical to --jobs 4"

echo "ok: spool sweep survives kill -9 and a corrupt fragment with the single-process bytes"
[[ "$keep_workdir" -eq 1 ]] || rm -rf "$workdir"
