#!/usr/bin/env bash
# Tracing-overhead guard: runs the 4-thread build pipeline benchmark with
# per-thread event buffers enabled (DBREPAIR_TRACE_EVENTS=1) and disabled,
# compares the median wall time of each configuration, and fails when
# enabling tracing costs more than THRESHOLD_PCT percent. The two
# configurations alternate, one repetition each, so host drift during the
# run lands on both sides instead of showing up as overhead. This enforces
# the DESIGN.md contract that recording into the lock-free lanes is cheap
# enough to leave on for any run that wants a trace. Wired into ctest under
# the perf-smoke label (serial, so other tests don't pollute the medians).
#
# Usage: tools/check_obs_overhead.sh [build-dir]   (default: build)
# Env:   FILTER         benchmark regex   (^BM_BuildPipelineThreads/30000/4$)
#        REPS           off/on pairs, one repetition per side (5)
#        MIN_TIME       --benchmark_min_time per repetition (0.5: several
#                       iterations per sample, so one preempted iteration
#                       does not decide it)
#        THRESHOLD_PCT  maximum tolerated overhead in percent (3)
#        FLOOR_MS       ignore deltas below this many ms — scheduler noise
#                       on a fast benchmark is not tracing overhead (0.5)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
BENCH="$BUILD_DIR/bench/bench_figure3_runtime"
FILTER="${FILTER:-^BM_BuildPipelineThreads/30000/4\$}"
REPS="${REPS:-5}"
MIN_TIME="${MIN_TIME:-0.5}"
THRESHOLD_PCT="${THRESHOLD_PCT:-3}"
FLOOR_MS="${FLOOR_MS:-0.5}"

if [[ ! -x "$BENCH" ]]; then
  echo "error: $BENCH not built" >&2
  echo "  cmake --build $BUILD_DIR --target bench_figure3_runtime" >&2
  exit 1
fi

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

run_bench() {  # $1 = DBREPAIR_TRACE_EVENTS value, $2 = output json
  DBREPAIR_TRACE_EVENTS="$1" DBREPAIR_TRACE_OUT= DBREPAIR_OBS_OUT= \
    "$BENCH" \
    --benchmark_filter="$FILTER" \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_out="$2" --benchmark_out_format=json >/dev/null
}

echo "== check_obs_overhead: $FILTER ($REPS off/on pairs," \
     "threshold ${THRESHOLD_PCT}%)"
# Odd pairs run "off" first, even pairs "on" first, so neither side always
# takes the second slot of a pair.
for ((rep = 1; rep <= REPS; rep++)); do
  echo "-- pair $rep: tracing off and on (DBREPAIR_TRACE_EVENTS=1)"
  if ((rep % 2)); then
    run_bench 0 "$TMP_DIR/off-$rep.json"
    run_bench 1 "$TMP_DIR/on-$rep.json"
  else
    run_bench 1 "$TMP_DIR/on-$rep.json"
    run_bench 0 "$TMP_DIR/off-$rep.json"
  fi
done

python3 - "$TMP_DIR" "$REPS" "$THRESHOLD_PCT" "$FLOOR_MS" <<'PY'
import json
import statistics
import sys

tmp_dir, reps, threshold_pct, floor_ms = sys.argv[1:5]
threshold_pct = float(threshold_pct)
floor_ms = float(floor_ms)

def run_ms(path):
    with open(path) as fh:
        data = json.load(fh)
    for bench in data.get("benchmarks", []):
        value = float(bench["real_time"])
        unit = bench.get("time_unit", "ns")
        scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}[unit]
        return value * scale
    sys.exit(f"error: no benchmark run in {path}")

def median_ms(side):
    return statistics.median(run_ms(f"{tmp_dir}/{side}-{rep}.json")
                             for rep in range(1, int(reps) + 1))

off = median_ms("off")
on = median_ms("on")
delta = on - off
pct = 100.0 * delta / off if off > 0 else 0.0
print(f"   tracing off : {off:10.3f} ms (median)")
print(f"   tracing on  : {on:10.3f} ms (median)")
print(f"   overhead    : {delta:+10.3f} ms ({pct:+.2f}%)")
if pct > threshold_pct and delta > floor_ms:
    sys.exit(
        f"FAIL: tracing overhead {pct:.2f}% exceeds {threshold_pct:.1f}% "
        f"(delta {delta:.3f} ms > floor {floor_ms} ms)")
print(f"OK: within {threshold_pct:.1f}% budget")
PY
