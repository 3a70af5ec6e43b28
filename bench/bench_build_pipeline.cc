// Pipeline decomposition: where the end-to-end repair time goes — violation
// enumeration (Algorithm 2), MWSCP construction (Algorithms 3-4), solving
// (Algorithm 5), and repair materialisation (Definition 3.2) — plus the
// SQL-view path for violation enumeration as the paper's original
// architecture would have run it.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "repair/repair_builder.h"
#include "repair/setcover/solvers.h"
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

void BM_FindViolationsEngineIndexed(benchmark::State& state) {
  // Same enumeration with B+-tree indexes on the filtered columns
  // (Client.A, Buy.P). The planner consults selectivity estimates: at 30%
  // inconsistency it declines the index (scan wins); at 2% (second arg) it
  // pushes the range down.
  const auto clients = static_cast<size_t>(state.range(0));
  ClientBuyOptions options;
  options.num_clients = clients;
  options.inconsistency_ratio = static_cast<double>(state.range(1)) / 100.0;
  options.seed = 1;
  auto workload = GenerateClientBuy(options);
  if (!workload.ok()) {
    state.SkipWithError(workload.status().ToString().c_str());
    return;
  }
  Status st = workload->db.FindMutableTable("Client")->CreateOrderedIndex(1);
  if (st.ok()) st = workload->db.FindMutableTable("Buy")->CreateOrderedIndex(2);
  if (!st.ok()) {
    state.SkipWithError(st.ToString().c_str());
    return;
  }
  auto bound = BindAll(workload->db.schema(), workload->ics);
  if (!bound.ok()) {
    state.SkipWithError(bound.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    ViolationEngine engine(workload->db, *bound);
    auto violations = engine.FindViolations();
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
  auto bound = BindAll(workload->db.schema(), workload->ics);
  if (!bound.ok()) {
    state.SkipWithError(bound.status().ToString().c_str());
    return;
  }
  // A long-lived engine keeps its hash indexes warm across batches — the
  // realistic incremental setting; the first call pays the index build.
  ViolationEngine engine(workload->db, *bound);
  {
    auto warmup = engine.FindViolationsSince(mark);
    if (!warmup.ok()) {
      state.SkipWithError(warmup.status().ToString().c_str());
      return;
    }
  }
  size_t found = 0;
  for (auto _ : state) {
    auto violations = engine.FindViolationsSince(mark);
    if (!violations.ok()) {
      state.SkipWithError(violations.status().ToString().c_str());
      return;
    }
    found = violations->size();
    benchmark::DoNotOptimize(found);
  }
  state.counters["violations"] = static_cast<double>(found);
}

void BM_BuildRepairProblem(benchmark::State& state) {
  const PreparedProblem& prepared =
      ClientBuyProblem(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    auto problem = BuildRepairProblem(prepared.workload->db, prepared.bound,
                                      DistanceFunction());
    if (!problem.ok()) {
      state.SkipWithError(problem.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(problem->fixes.size());
  }
  state.counters["sets"] =
      static_cast<double>(prepared.csr.num_sets());
}

void BM_ApplyCover(benchmark::State& state) {
  const PreparedProblem& prepared =
      ClientBuyProblem(static_cast<size_t>(state.range(0)), 1);
  auto cover = ModifiedGreedySetCover(prepared.csr);
  if (!cover.ok()) {
    state.SkipWithError(cover.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto repaired =
        ApplyCover(prepared.workload->db, prepared.problem, *cover);
    if (!repaired.ok()) {
      state.SkipWithError(repaired.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(repaired->TotalTuples());
  }
  state.counters["chosen"] = static_cast<double>(cover->chosen.size());
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
BENCHMARK(BM_FindViolationsEngineIndexed)
    ->Unit(benchmark::kMillisecond)
    ->Args({100000, 30})
    ->Args({100000, 2});
BENCHMARK(BM_FindViolationsIncremental)
    ->Unit(benchmark::kMillisecond)
    ->Arg(100)
    ->Arg(1000);
BENCHMARK(BM_BuildRepairProblem)
    ->Unit(benchmark::kMillisecond)
    ->Arg(10000)
    ->Arg(100000);
BENCHMARK(BM_ApplyCover)
    ->Unit(benchmark::kMillisecond)
    ->Arg(10000)
    ->Arg(100000);

BENCHMARK_MAIN();
