// Violation enumeration (Algorithm 2) three ways: the engine's columnar
// join, the SQL-view path the paper's original architecture would have run,
// and the engine's delta join over a freshly inserted batch. The per-phase
// decomposition of a whole repair (scan, fixes, assemble, solve, apply,
// verify) is measured by the ledger in benchmark/, not here.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "constraints/violation_engine.h"
#include "sql/views.h"

using namespace dbrepair;        // NOLINT(build/namespaces)
using namespace dbrepair::bench; // NOLINT(build/namespaces)

namespace {

void BM_FindViolationsEngine(benchmark::State& state) {
  const PreparedProblem& prepared =
      ClientBuyProblem(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    ViolationEngine engine(prepared.workload->db, prepared.bound);
    auto violations = engine.FindViolations();
    if (!violations.ok()) {
      state.SkipWithError(violations.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(violations->size());
  }
  state.counters["violations"] =
      static_cast<double>(prepared.problem.violations.size());
}

void BM_FindViolationsSqlViews(benchmark::State& state) {
  const PreparedProblem& prepared =
      ClientBuyProblem(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    auto violations =
        FindViolationsViaSql(prepared.workload->db, prepared.bound);
    if (!violations.ok()) {
      state.SkipWithError(violations.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(violations->size());
  }
}

void BM_FindViolationsIncremental(benchmark::State& state) {
  // A clean 100k-client base plus a dirty batch of `state.range(0)` minors:
  // the delta-join enumeration touches only assignments involving the
  // batch, versus re-running the full enumeration.
  ClientBuyOptions clean;
  clean.num_clients = 100000;
  clean.inconsistency_ratio = 0.0;
  clean.seed = 1;
  auto workload = GenerateClientBuy(clean);
  if (!workload.ok()) {
    state.SkipWithError(workload.status().ToString().c_str());
    return;
  }
  std::vector<uint32_t> mark;
  for (size_t r = 0; r < workload->db.relation_count(); ++r) {
    mark.push_back(static_cast<uint32_t>(workload->db.table(r).size()));
  }
  const auto batch = static_cast<int64_t>(state.range(0));
  for (int64_t i = 0; i < batch; ++i) {
    auto c = workload->db.Insert(
        "Client", {Value::Int(1000000 + i), Value::Int(15), Value::Int(90)});
    auto b = workload->db.Insert(
        "Buy", {Value::Int(1000000 + i), Value::Int(1), Value::Int(60)});
    if (!c.ok() || !b.ok()) {
      state.SkipWithError("insert failed");
      return;
    }
  }
  // Each relation's appended rows: the batch, as the delta join's dirty
  // rows.
  std::vector<std::vector<uint32_t>> appended(mark.size());
  for (uint32_t r = 0; r < mark.size(); ++r) {
    for (uint32_t row = mark[r]; row < workload->db.table(r).size(); ++row) {
      appended[r].push_back(row);
    }
  }
  auto bound = BindAll(workload->db.schema(), workload->ics);
  if (!bound.ok()) {
    state.SkipWithError(bound.status().ToString().c_str());
    return;
  }
  // A long-lived engine keeps its hash indexes warm across batches — the
  // realistic incremental setting; the first call pays the index build.
  ViolationEngine engine(workload->db, *bound);
  {
    auto warmup = engine.FindViolationsTouching(appended);
    if (!warmup.ok()) {
      state.SkipWithError(warmup.status().ToString().c_str());
      return;
    }
  }
  size_t found = 0;
  for (auto _ : state) {
    auto violations = engine.FindViolationsTouching(appended);
    if (!violations.ok()) {
      state.SkipWithError(violations.status().ToString().c_str());
      return;
    }
    found = violations->size();
    benchmark::DoNotOptimize(found);
  }
  state.counters["violations"] = static_cast<double>(found);
}

}  // namespace

BENCHMARK(BM_FindViolationsEngine)
    ->Unit(benchmark::kMillisecond)
    ->Arg(10000)
    ->Arg(100000);
BENCHMARK(BM_FindViolationsSqlViews)
    ->Unit(benchmark::kMillisecond)
    ->Arg(10000)
    ->Arg(100000);
BENCHMARK(BM_FindViolationsIncremental)
    ->Unit(benchmark::kMillisecond)
    ->Arg(100)
    ->Arg(1000);

BENCHMARK_MAIN();
