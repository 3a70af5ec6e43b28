#!/usr/bin/env bash
# Runs every bench_* binary at small sizes and merges the results into one
# BENCH_summary.json at the repo root.
#
# The small-size pass keeps the whole sweep to roughly a minute; the
# headline pass additionally runs the three scenario repairs at 20k rows
# with 3 repetitions ("scenario_headline"). End-to-end and per-phase
# performance of the one-shot, session and server paths is measured by the
# ledger (benchmark/run.py), not by this script.
#
# Usage:
#   tools/run_benchmarks.sh            # small sizes + the scenario headline
#   HEADLINE=0 tools/run_benchmarks.sh # small sizes only
#   BUILD_DIR=out tools/run_benchmarks.sh
#
# Benchmarks must run from a Release build — debug timings are meaningless
# as baselines and have silently polluted BENCH_summary.json before. The
# script checks CMakeCache.txt: if $BUILD_DIR is not a Release tree it
# configures and uses $ROOT/build-release instead (never reconfiguring a
# dev build dir out from under you), rebuilds the bench binaries, and
# records the build type in the summary's "context".
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$ROOT/build}"
OUT="${OUT:-$ROOT/BENCH_summary.json}"
HEADLINE="${HEADLINE:-1}"

cache_build_type() {
  sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$1/CMakeCache.txt" 2>/dev/null || true
}

BUILD_TYPE="$(cache_build_type "$BUILD_DIR")"
if [[ "$BUILD_TYPE" != "Release" ]]; then
  echo "note: $BUILD_DIR is '${BUILD_TYPE:-unconfigured}', not Release —" \
       "switching to $ROOT/build-release" >&2
  BUILD_DIR="$ROOT/build-release"
  cmake -B "$BUILD_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release >&2
  BUILD_TYPE="Release"
fi

BENCH_TARGETS=(bench_figure2_approximation bench_figure3_runtime
               bench_complexity_scaling bench_degree_sweep
               bench_inconsistency_ratio bench_cardinality
               bench_setcover_micro
               bench_build_pipeline bench_scenarios)
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${BENCH_TARGETS[@]}" >&2

BENCH_DIR="$BUILD_DIR/bench"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# One Google-Benchmark binary, restricted to its smallest registered
# arguments by regex. Output goes to $TMP/<name>.json.
run_gbench() {
  local name="$1" filter="$2"
  shift 2
  echo "== $name (filter: $filter)" >&2
  "$BENCH_DIR/$name" \
    --benchmark_filter="$filter" \
    --benchmark_out="$TMP/$name.json" \
    --benchmark_out_format=json "$@" >&2
}

if [[ "$HEADLINE" == "1" ]]; then
  # The headline runs first and is renamed before the small pass below
  # reuses the binary's output file.
  #
  # Scenario headline: end-to-end repair throughput of the three scenario
  # generators at 20k rows, single thread, median of 3. Tracks regressions
  # in the join-heavy (zipf), numeric-fix (drift), and high-degree
  # (adversary) paths together.
  run_gbench bench_scenarios \
    'BM_(ZipfHotspotRepair|SensorDriftRepair|AdversaryRepair)/20000$' \
    --benchmark_repetitions=3 --benchmark_report_aggregates_only=true
  mv "$TMP/bench_scenarios.json" "$TMP/zz_headline_scenario.json"
fi

# Smallest registered size of every benchmark family in each binary.
run_gbench bench_figure3_runtime '/1000$'
run_gbench bench_build_pipeline '/10000$|/100$'
run_gbench bench_setcover_micro '/1000$'
run_gbench bench_cardinality '/10/20$|TransformOnly/100$'
run_gbench bench_complexity_scaling '/2000$'
run_gbench bench_degree_sweep 'Sweep/2$|EndToEnd/5000$'
run_gbench bench_inconsistency_ratio '/5$'
run_gbench bench_scenarios '/1000$'

# bench_figure2_approximation is a plain table printer, not a
# Google-Benchmark binary; capture its text at a small size cap.
echo "== bench_figure2_approximation (cap 300 clients)" >&2
"$BENCH_DIR/bench_figure2_approximation" 300 > "$TMP/figure2.txt"

python3 - "$TMP" "$OUT" "$BUILD_TYPE" <<'PY'
import json, sys, os

tmp, out, build_type = sys.argv[1], sys.argv[2], sys.argv[3]
summary = {"benchmarks": [], "scenario_headline": None,
           "figure2_table": []}

for fname in sorted(os.listdir(tmp)):
    path = os.path.join(tmp, fname)
    if fname == "figure2.txt":
        with open(path) as f:
            summary["figure2_table"] = [line.rstrip() for line in f]
        continue
    if not fname.endswith(".json"):
        continue
    with open(path) as f:
        data = json.load(f)
    summary.setdefault("context", data.get("context", {}))
    binary = fname[:-len(".json")]
    for b in data.get("benchmarks", []):
        entry = {
            "binary": ("scenario_headline"
                       if binary == "zz_headline_scenario" else binary),
            "name": b["name"],
            "real_time": b.get("real_time"),
            "cpu_time": b.get("cpu_time"),
            "time_unit": b.get("time_unit"),
        }
        for extra in ("items_per_second", "iterations", "aggregate_name"):
            if extra in b:
                entry[extra] = b[extra]
        summary["benchmarks"].append(entry)

# Scenario headline: median end-to-end repair throughput per generator at
# 20k rows; the summary keeps one entry per scenario with its
# items_per_second (tuples repaired per second).
scenario_medians = {}
for b in summary["benchmarks"]:
    if (b["binary"] == "scenario_headline"
            and b.get("aggregate_name") == "median"):
        for key, bm in (("zipf_hotspot", "BM_ZipfHotspotRepair/20000"),
                        ("sensor_drift", "BM_SensorDriftRepair/20000"),
                        ("adversary", "BM_AdversaryRepair/20000")):
            if bm in b["name"]:
                scenario_medians[key] = b
if len(scenario_medians) == 3:
    summary["scenario_headline"] = {
        "workload": "scenario generators at ~20k rows, single thread",
        "metric": "end-to-end RepairDatabase latency, median of 3",
    }
    for key, b in scenario_medians.items():
        summary["scenario_headline"][key] = {
            "ms": b["real_time"],
            "items_per_second": b.get("items_per_second"),
        }

# The CMake build type the binaries were actually compiled with; the
# script only ever runs Release trees, so anything else here means the
# summary predates the enforcement and should not be used as a baseline.
# gbench's own "library_build_type" reflects how the *benchmark library*
# was compiled, not our code — in this tree the vendored library ships
# debug-flavoured, which made the context read "debug" next to
# cmake_build_type "Release". Keep the library's value under its own key
# and derive library_build_type from the same build dir as
# cmake_build_type so the two can never disagree.
summary.setdefault("context", {})
# The context is copied from whichever binary's output was read first; its
# executable path names that one binary and the local checkout, not the run.
summary["context"].pop("executable", None)
lib_reported = summary["context"].get("library_build_type")
if lib_reported is not None:
    summary["context"]["benchmark_library_build_type"] = lib_reported
summary["context"]["library_build_type"] = build_type.lower()
summary["context"]["cmake_build_type"] = build_type

with open(out, "w") as f:
    json.dump(summary, f, indent=2)
    f.write("\n")
print(f"wrote {out} ({len(summary['benchmarks'])} benchmark entries)")
if summary["scenario_headline"]:
    parts = []
    for key in ("zipf_hotspot", "sensor_drift", "adversary"):
        entry = summary["scenario_headline"].get(key)
        if entry:
            parts.append(f"{key} {entry['ms']:.1f} ms")
    print("scenario headline: " + ", ".join(parts))
PY
