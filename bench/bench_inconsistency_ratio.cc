// Ablation — inconsistency ratio: the paper fixed "around 30% of tuples
// involved in inconsistencies". This sweep varies the ratio at a fixed
// database size and reports how instance size (violations, candidate
// fixes) and solver time scale with it.

#include <benchmark/benchmark.h>

#include <map>

#include "bench_util.h"
#include "repair/setcover/solvers.h"

using namespace dbrepair;        // NOLINT(build/namespaces)
using namespace dbrepair::bench; // NOLINT(build/namespaces)

namespace {

const PreparedProblem& RatioProblem(int ratio_percent) {
  static auto* cache = new std::map<int, PreparedProblem>();
  const auto it = cache->find(ratio_percent);
  if (it != cache->end()) return it->second;

  ClientBuyOptions options;
  options.num_clients = 50000;
  options.inconsistency_ratio = ratio_percent / 100.0;
  options.seed = 1;
  auto workload = GenerateClientBuy(options);
  if (!workload.ok()) std::abort();
  PreparedProblem prepared;
  prepared.workload =
      std::make_shared<GeneratedWorkload>(std::move(workload).value());
  auto bound =
      BindAll(prepared.workload->db.schema(), prepared.workload->ics);
  if (!bound.ok()) std::abort();
  prepared.bound = std::move(bound).value();
  auto problem = BuildRepairProblem(prepared.workload->db, prepared.bound,
                                    DistanceFunction());
  if (!problem.ok()) std::abort();
  prepared.problem = std::move(problem).value();
  prepared.csr = CsrSetCoverInstance::Freeze(prepared.problem.instance);
  return cache->emplace(ratio_percent, std::move(prepared)).first->second;
}

void BM_ModifiedGreedyByRatio(benchmark::State& state) {
  const PreparedProblem& prepared =
      RatioProblem(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto solution = ModifiedGreedySetCover(prepared.csr);
    if (!solution.ok()) {
      state.SkipWithError(solution.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(solution->weight);
  }
  state.counters["violations"] =
      static_cast<double>(prepared.problem.violations.size());
  state.counters["candidate_fixes"] =
      static_cast<double>(prepared.csr.num_sets());
}

void BM_LayerByRatio(benchmark::State& state) {
  const PreparedProblem& prepared =
      RatioProblem(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto solution = LayerSetCover(prepared.csr);
    if (!solution.ok()) {
      state.SkipWithError(solution.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(solution->weight);
  }
}

}  // namespace

BENCHMARK(BM_ModifiedGreedyByRatio)
    ->Unit(benchmark::kMillisecond)
    ->Arg(5)
    ->Arg(15)
    ->Arg(30)
    ->Arg(45)
    ->Arg(60);
BENCHMARK(BM_LayerByRatio)
    ->Unit(benchmark::kMillisecond)
    ->Arg(5)
    ->Arg(30)
    ->Arg(60);

BENCHMARK_MAIN();
