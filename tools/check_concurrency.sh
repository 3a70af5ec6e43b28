#!/usr/bin/env bash
# Builds the tree under ThreadSanitizer and runs the concurrency-labelled
# tests: the thread-pool unit tests, the catalog suite (four threads copy
# and drop one shared string Value, racing on nothing but its payload's
# reference count), the serial-vs-parallel differential
# harness, the RepairSession suite (whose concurrent-ApplyBatch misuse
# case must fail cleanly, not racily), the flat set-cover layout suite
# (which replays the per-batch CSR epoch append at 1 and 4 threads), the
# conflict-component suite (its session case streams batches through a
# 4-thread session), the incremental-engine suite (one long-lived
# ViolationEngine whose join indexes grow by appended suffixes, scanned by
# 4 threads after each extension, against fresh engines), the
# randomized trace-merge suite (pool workers appending to per-thread event
# lanes while snapshots read them, and two threads recording spans into one
# shared context), the scenario suite (the generator
# differential oracle replays every scenario at 1 and 4 threads, plus the
# inconsistency-measure tests that ride the same label),
# and the repair-server suite (concurrent tenants streaming batches over
# real sockets into the shared worker pool, with STATS snapshots racing the
# streams). Any data race in the parallel pipeline, the mutex-guarded event
# lanes (appends racing snapshot copies and front trimming, lane lookup by
# thread id), or the server's dispatch path fails this job.
#
# Usage: tools/check_concurrency.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDBREPAIR_SANITIZE=thread
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target thread_pool_test catalog_test differential_test obs_test \
           incremental_test session_test setcover_layout_test \
           components_test \
           trace_merge_test inconsistency_test \
           scenario_metamorphic_test scenario_differential_test \
           protocol_test server_test
ctest --test-dir "$BUILD_DIR" \
  -L 'concurrency|obs|session|setcover|scenario|server' \
  --output-on-failure
