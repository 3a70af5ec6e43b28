// Ablation — degree of inconsistency: the paper argues census-like data has
// Deg(D, IC) bounded by the household size. This sweep grows the household
// size at a fixed tuple budget and reports how the measured degree and the
// modified-greedy solve time react.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "repair/api.h"
#include "repair/setcover/solvers.h"

using namespace dbrepair;        // NOLINT(build/namespaces)
using namespace dbrepair::bench; // NOLINT(build/namespaces)

namespace {

void BM_CensusDegreeSweep(benchmark::State& state) {
  const auto max_members = static_cast<size_t>(state.range(0));
  // Keep the tuple count roughly constant: households * avg members.
  const size_t households = 120000 / (1 + max_members / 2);
  const PreparedProblem& prepared =
      CensusProblem(households, max_members, /*seed=*/1);
  for (auto _ : state) {
    auto solution = ModifiedGreedySetCover(prepared.csr);
    if (!solution.ok()) {
      state.SkipWithError(solution.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(solution->weight);
  }
  state.counters["tuples"] =
      static_cast<double>(prepared.workload->db.TotalTuples());
  state.counters["max_degree"] =
      static_cast<double>(prepared.problem.degrees.max_degree);
  state.counters["violations"] =
      static_cast<double>(prepared.problem.violations.size());
}

void BM_CensusEndToEnd(benchmark::State& state) {
  // End-to-end repair (build + solve + apply + verify) at the default
  // household size, for context against the solver-only numbers.
  const auto households = static_cast<size_t>(state.range(0));
  CensusOptions options;
  options.num_households = households;
  options.seed = 1;
  auto workload = GenerateCensus(options);
  if (!workload.ok()) {
    state.SkipWithError(workload.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto outcome = RepairDatabase(workload->db, workload->ics);
    if (!outcome.ok()) {
      state.SkipWithError(outcome.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(outcome->stats.distance);
  }
  state.counters["tuples"] =
      static_cast<double>(workload->db.TotalTuples());
}

}  // namespace

BENCHMARK(BM_CensusDegreeSweep)
    ->Unit(benchmark::kMillisecond)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32);
BENCHMARK(BM_CensusEndToEnd)
    ->Unit(benchmark::kMillisecond)
    ->Arg(5000)
    ->Arg(20000);

BENCHMARK_MAIN();
