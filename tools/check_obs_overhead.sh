#!/usr/bin/env bash
# Tracing-overhead guard: fails when recording into the per-thread event
# lanes makes the 4-thread build pipeline more than THRESHOLD_PCT percent
# slower. The measurement runs inside one process: bench_figure3_runtime's
# BM_ObsOverheadPaired builds the same problem in off/on pairs, toggling
# obs::EventCollector::set_enabled between the two builds of a pair (the
# order alternates per pair), so both sides share one heap, one scheduler
# history and one host phase. It reports the median off time and the
# median per-pair on-minus-off difference. This enforces the DESIGN.md
# contract that recording into the per-thread lanes is cheap enough to leave
# on for any run that wants a trace. Wired into ctest under the perf-smoke
# label (serial, so other tests don't pollute the timings).
#
# Usage: tools/check_obs_overhead.sh [build-dir]   (default: build)
# Env:   FILTER         benchmark regex (^BM_ObsOverheadPaired/30000/4/61/)
#        THRESHOLD_PCT  maximum tolerated overhead in percent (3)
#        FLOOR_MS       ignore deltas below this many ms — scheduler noise
#                       on a fast benchmark is not tracing overhead (0.5)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
BENCH="$BUILD_DIR/bench/bench_figure3_runtime"
FILTER="${FILTER:-^BM_ObsOverheadPaired/30000/4/61/}"
THRESHOLD_PCT="${THRESHOLD_PCT:-3}"
FLOOR_MS="${FLOOR_MS:-0.5}"

if [[ ! -x "$BENCH" ]]; then
  echo "error: $BENCH not built" >&2
  echo "  cmake --build $BUILD_DIR --target bench_figure3_runtime" >&2
  exit 1
fi

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

echo "== check_obs_overhead: $FILTER (threshold ${THRESHOLD_PCT}%)"
# The benchmark sets recording per build itself; unset the switches that
# would otherwise turn it on for the whole process or write files at exit.
env -u DBREPAIR_TRACE_EVENTS -u DBREPAIR_TRACE_OUT -u DBREPAIR_OBS_OUT \
  "$BENCH" \
  --benchmark_filter="$FILTER" \
  --benchmark_out="$TMP_DIR/paired.json" --benchmark_out_format=json \
  >/dev/null

python3 - "$TMP_DIR/paired.json" "$THRESHOLD_PCT" "$FLOOR_MS" <<'PY'
import json
import sys

path, threshold_pct, floor_ms = sys.argv[1:4]
threshold_pct = float(threshold_pct)
floor_ms = float(floor_ms)

with open(path) as fh:
    benchmarks = json.load(fh).get("benchmarks", [])
if not benchmarks:
    sys.exit(f"error: no benchmark run in {path}")
bench = benchmarks[0]
if bench.get("error_occurred"):
    sys.exit(f"error: {bench.get('error_message', 'benchmark failed')}")
off = float(bench["off_ms"])
delta = float(bench["delta_ms"])
pairs = int(bench["pairs"])
pct = 100.0 * delta / off if off > 0 else 0.0
print(f"   off/on pairs : {pairs:10d}")
print(f"   tracing off  : {off:10.3f} ms (median)")
print(f"   on - off     : {delta:+10.3f} ms (median of pair differences)")
print(f"   overhead     : {pct:+10.2f}%")
if pct > threshold_pct and delta > floor_ms:
    sys.exit(
        f"FAIL: tracing overhead {pct:.2f}% exceeds {threshold_pct:.1f}% "
        f"(delta {delta:.3f} ms > floor {floor_ms} ms)")
print(f"OK: within {threshold_pct:.1f}% budget")
PY
