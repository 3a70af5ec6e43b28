#!/usr/bin/env bash
# Runs every bench_* binary at small sizes and merges the results into one
# BENCH_summary.json at the repo root.
#
# The small-size pass keeps the whole sweep to roughly a minute; the
# headline pass additionally runs, with 3 repetitions each, the
# session-vs-full-repair pair ("session_headline"), the multi-tenant
# server throughput pair at 1 vs 4 tenants ("server_headline", the scaling
# number for the repair server).
#
# Usage:
#   tools/run_benchmarks.sh            # small sizes + headline passes
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
               bench_build_pipeline bench_session_batches
               bench_scenarios bench_server)
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
  # Each headline runs first and is renamed before the small pass below
  # reuses the binary's output file.
  #
  # Session acceptance metric: one incremental ApplyBatch vs a from-scratch
  # RepairDatabase on the same arriving batch — 100k base rows, 1% dirty
  # batches, single thread, median of 3. The session must win >= 3x.
  run_gbench bench_session_batches \
    'BM_(SessionBatch|FullRepairPerBatch)/100000$' \
    --benchmark_repetitions=3 --benchmark_report_aggregates_only=true
  mv "$TMP/bench_session_batches.json" "$TMP/zz_headline_session.json"

  # Scenario headline: end-to-end repair throughput of the three scenario
  # generators at 20k rows, single thread, median of 3. Tracks regressions
  # in the join-heavy (zipf), numeric-fix (drift), and high-degree
  # (adversary) paths together.
  run_gbench bench_scenarios \
    'BM_(ZipfHotspotRepair|SensorDriftRepair|AdversaryRepair)/20000$' \
    --benchmark_repetitions=3 --benchmark_report_aggregates_only=true
  mv "$TMP/bench_scenarios.json" "$TMP/zz_headline_scenario.json"

  # Server headline: batch throughput over the wire at 1 vs 4 concurrent
  # tenants (shared worker pool sized to the tenant count), median of 3.
  # Tracks whether cross-tenant parallelism actually scales.
  run_gbench bench_server 'BM_ServerTenantThroughput/(1|4)$' \
    --benchmark_repetitions=3 --benchmark_report_aggregates_only=true
  mv "$TMP/bench_server.json" "$TMP/zz_headline_server.json"
fi

# Smallest registered size of every benchmark family in each binary.
run_gbench bench_figure3_runtime '/1000$'
run_gbench bench_build_pipeline '/10000$|/100$'
run_gbench bench_setcover_micro '/1000$'
run_gbench bench_cardinality '/10/20$|TransformOnly/100$'
run_gbench bench_complexity_scaling '/2000$'
run_gbench bench_degree_sweep 'Sweep/2$|EndToEnd/5000$'
run_gbench bench_inconsistency_ratio '/5$'
run_gbench bench_session_batches '/10000$'
run_gbench bench_scenarios '/1000$'
run_gbench bench_server '/1$'

# bench_figure2_approximation is a plain table printer, not a
# Google-Benchmark binary; capture its text at a small size cap.
echo "== bench_figure2_approximation (cap 300 clients)" >&2
"$BENCH_DIR/bench_figure2_approximation" 300 > "$TMP/figure2.txt"

python3 - "$TMP" "$OUT" "$BUILD_TYPE" <<'PY'
import json, sys, os

tmp, out, build_type = sys.argv[1], sys.argv[2], sys.argv[3]
summary = {"benchmarks": [], "session_headline": None,
           "scenario_headline": None,
           "server_headline": None,
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
        display = {"zz_headline_session": "session_headline",
                   "zz_headline_scenario": "scenario_headline",
                   "zz_headline_server": "server_headline"}
        entry = {
            "binary": display.get(binary, binary),
            "name": b["name"],
            "real_time": b.get("real_time"),
            "cpu_time": b.get("cpu_time"),
            "time_unit": b.get("time_unit"),
        }
        for extra in ("items_per_second", "iterations", "aggregate_name"):
            if extra in b:
                entry[extra] = b[extra]
        summary["benchmarks"].append(entry)

# Session headline: one incremental ApplyBatch vs one from-scratch repair
# of the grown instance, 100k base rows / 1% dirty batches, median of 3.
session_medians = {}
for b in summary["benchmarks"]:
    if (b["binary"] == "session_headline"
            and b.get("aggregate_name") == "median"):
        if "BM_SessionBatch/100000" in b["name"]:
            session_medians["session"] = b
        elif "BM_FullRepairPerBatch/100000" in b["name"]:
            session_medians["full"] = b
if len(session_medians) == 2:
    sess, full = session_medians["session"], session_medians["full"]
    summary["session_headline"] = {
        "workload": "Client/Buy, 100k clean base rows, 1% dirty batches, "
                    "single thread",
        "metric": "per-batch repair latency, median of 3",
        "full_repair_ms": full["real_time"],
        "session_batch_ms": sess["real_time"],
        "session_speedup": full["real_time"] / sess["real_time"],
    }

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

# Server headline: wire-level batch throughput at 1 vs 4 concurrent
# tenants; the scaling factor is items_per_second(4) / items_per_second(1).
server_medians = {}
for b in summary["benchmarks"]:
    if (b["binary"] == "server_headline"
            and b.get("aggregate_name") == "median"):
        if "BM_ServerTenantThroughput/1" in b["name"]:
            server_medians["one"] = b
        elif "BM_ServerTenantThroughput/4" in b["name"]:
            server_medians["four"] = b
if len(server_medians) == 2:
    one, four = server_medians["one"], server_medians["four"]
    entry = {
        "workload": "client-buy tenants streaming dirty batches over "
                    "loopback, worker pool sized to the tenant count",
        "metric": "rows repaired per second over the wire, median of 3",
        "one_tenant_rows_per_second": one.get("items_per_second"),
        "four_tenant_rows_per_second": four.get("items_per_second"),
    }
    if one.get("items_per_second") and four.get("items_per_second"):
        entry["tenant_scaling"] = (four["items_per_second"]
                                   / one["items_per_second"])
    summary["server_headline"] = entry

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
lib_reported = summary["context"].get("library_build_type")
if lib_reported is not None:
    summary["context"]["benchmark_library_build_type"] = lib_reported
summary["context"]["library_build_type"] = build_type.lower()
summary["context"]["cmake_build_type"] = build_type

with open(out, "w") as f:
    json.dump(summary, f, indent=2)
    f.write("\n")
print(f"wrote {out} ({len(summary['benchmarks'])} benchmark entries)")
if summary["session_headline"]:
    s = summary["session_headline"]
    print(f"session headline: incremental batch {s['session_speedup']:.2f}x "
          f"over full re-repair ({s['full_repair_ms']:.1f} ms -> "
          f"{s['session_batch_ms']:.1f} ms)")
if summary["server_headline"]:
    v = summary["server_headline"]
    if "tenant_scaling" in v:
        print(f"server headline: {v['tenant_scaling']:.2f}x throughput at "
              f"4 tenants vs 1 "
              f"({v['one_tenant_rows_per_second']:.0f} -> "
              f"{v['four_tenant_rows_per_second']:.0f} rows/s)")
if summary["scenario_headline"]:
    parts = []
    for key in ("zipf_hotspot", "sensor_drift", "adversary"):
        entry = summary["scenario_headline"].get(key)
        if entry:
            parts.append(f"{key} {entry['ms']:.1f} ms")
    print("scenario headline: " + ", ".join(parts))
PY
