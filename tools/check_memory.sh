#!/usr/bin/env bash
# Builds the tree under AddressSanitizer + UndefinedBehaviorSanitizer and runs
# the suites that drive the violation scan's raw column arrays: the storage
# tests (column snapshots, each table's flat cell array and key index, clones
# that share string payloads), the constraints tests (the engine against the
# brute-force oracle, on every column kind), the incremental-engine tests
# (join indexes grown by appended suffixes and folded, snapshots patched
# cell by cell), the serial-vs-parallel and
# scan-vs-oracle differential harness, the repair suite (the instance builder,
# whose Algorithm-4 linking binds `const Value*` cells through a one-cell
# override), the RepairSession suite (the session adopts the build's
# ViolationEngine, which outlives BuildRepairProblem and holds `&db_` and
# `&bound_`; the engine's own snapshot extended and patched batch by batch,
# copy-on-write when another snapshot still shares a relation, as the
# incremental-engine tests drive with a supplied snapshot; each batch
# appended one AppendRows call per relation, and a batch
# whose later relation fails rolled back by truncating the relations
# appended before it, cells and key slots both; the verify's membership
# marks set and cleared from row lists) and the scenario suites, plus the
# suites that create, copy and drop
# Values wholesale: the catalog tests (every copy, move and assignment of each
# Value kind), the io tests (the CSV scanner's field views into the loaded
# text, chunked appends and the truncation that undoes a failed load, and
# export), the SQL tests and the generator tests (every table built through
# Insert, so its cell array grows and moves); and
# the obs and server tests, whose per-thread event lanes (mutex-guarded
# deques) trim their oldest span trees from the front while open Spans still
# hold the lane and snapshot readers copy it. The scan's hot loop reads typed
# arrays through `const void*` casts and binds cell addresses into its binding
# slots; those `const Value*` cells, like the ones Algorithm-4 linking binds,
# point into each table's one cell array, which an Insert may move. A string
# Value frees its shared payload by hand when the last copy goes, so an
# out-of-bounds read, a dangling binding, an invalid cast, a use-after-free or
# a leaked payload, or a read past a trimmed lane front, fails this job.
#
# Usage: tools/check_memory.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"
SUITES=(catalog_test io_test sql_test storage_test constraints_test
        incremental_test differential_test repair_test session_test
        inconsistency_test scenario_metamorphic_test
        scenario_differential_test obs_test server_test gen_test)

# UBSan is fatal at compile time (no recovery) and at run time; the
# libstdc++ assertions bounds-check every container index.
cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDBREPAIR_SANITIZE=address \
  -DCMAKE_CXX_FLAGS="-fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS"
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${SUITES[@]}"

export ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1:detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
for suite in "${SUITES[@]}"; do
  echo "== $suite" >&2
  "$BUILD_DIR/tests/$suite" --gtest_brief=1
done
