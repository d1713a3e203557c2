#!/usr/bin/env bash
# Hot-path profiling recipe — the methodology behind the perf PRs
# (predecode, peak-jit, cost-model fast paths). Run it before and after
# a perf change; attach the before/after table to the PR.
#
# Usage:
#   scripts/profile.sh [workload] [tier] [seconds]
#     workload  one of the Table-1 names (default: swim)
#     tier      interp | predecoded | jit (default: jit)
#     seconds   sampling window per tool (default: 10)
#
# Tooling, in order of preference:
#   1. `perf record` (Linux) — cycle sampling with DWARF call graphs.
#      Needs perf_event_paranoid <= 2 (or CAP_PERFMON); the script
#      degrades gracefully when sampling is not permitted.
#   2. gprofng (binutils >= 2.39) — `gprofng collect app` + functions
#      report, when installed.
#   3. Always: the repo's own wall-clock A/B surfaces (hotpath bench).
#
# The invariant the profile must justify: any optimization of the cost
# model keeps observables bit-identical (DESIGN.md §16) — profile first,
# then write the fast path AND its differential gate.

set -euo pipefail
cd "$(dirname "$0")/.."

WORKLOAD="${1:-swim}"
TIER="${2:-jit}"
SECS="${3:-10}"
OUT="profile-out"
mkdir -p "$OUT"

echo "== build (release, symbols kept by profile.release debug=true) =="
cargo build --release -p peak-bench --bin hotpath

HOTPATH=target/release/hotpath
RUN=("$HOTPATH" --bench "$WORKLOAD" --tier "$TIER" --min-ms "$((SECS * 1000))"
     --json "$OUT/BENCH_hotpath.json")

if command -v perf >/dev/null 2>&1 && \
   perf record -o "$OUT/perf.data" -g --call-graph dwarf -F 997 \
        -- "${RUN[@]}" >/dev/null 2>&1; then
    echo "== perf: top cost centres ($WORKLOAD, $TIER tier) =="
    perf report -i "$OUT/perf.data" --stdio --percent-limit 1 \
        | head -60 | tee "$OUT/perf-report.txt"
else
    echo "perf sampling unavailable (not installed or not permitted); skipping"
fi

if command -v gprofng >/dev/null 2>&1; then
    rm -rf "$OUT/gprofng.er"
    if gprofng collect app -o "$OUT/gprofng.er" "${RUN[@]}" >/dev/null 2>&1; then
        echo "== gprofng: hot functions =="
        gprofng display text -functions "$OUT/gprofng.er" \
            | head -40 | tee "$OUT/gprofng-functions.txt"
    fi
fi

echo "== wall-clock A/B (the numbers CI actually gates on) =="
"$HOTPATH" --jit --bench "$WORKLOAD" --min-ms 500 --json "$OUT/BENCH_jit.json" || true
# --costmodel gates against the baseline in its --json file, so start
# that file as a copy of the committed baseline.
cp BENCH_costmodel.json "$OUT/BENCH_costmodel.json"
"$HOTPATH" --costmodel --bench "$WORKLOAD" --min-ms 500 \
    --json "$OUT/BENCH_costmodel.json" || true

echo
echo "artifacts in $OUT/: perf-report.txt gprofng-functions.txt BENCH_hotpath.json"
echo "BENCH_jit.json BENCH_costmodel.json (gated against the committed baseline)"
