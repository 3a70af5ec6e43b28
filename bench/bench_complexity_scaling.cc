// Propositions 3.5 / 3.7 — complexity scaling: the modified greedy should
// grow ~n log n when Deg(D, IC) is bounded, while the textbook greedy grows
// ~n^2; with a degree hotspot (one tuple in many inconsistencies) the
// modified greedy degrades towards n^2 log n as predicted.
//
// The reported counters normalise the measured time by n log n and n^2 so
// the flat column identifies the growth class.

#include <benchmark/benchmark.h>

#include <cmath>

#include "bench_util.h"
#include "repair/setcover/solvers.h"

using namespace dbrepair;        // NOLINT(build/namespaces)
using namespace dbrepair::bench; // NOLINT(build/namespaces)

namespace {

const PreparedProblem& HotspotProblem(size_t num_clients) {
  static auto* cache = new std::map<size_t, PreparedProblem>();
  const auto it = cache->find(num_clients);
  if (it != cache->end()) return it->second;

  ClientBuyOptions options;
  options.num_clients = num_clients;
  options.inconsistency_ratio = 0.3;
  options.seed = 1;
  // A handful of minors with very many offending purchases: unbounded
  // degree relative to n.
  options.hotspot_clients = 4;
  options.hotspot_buys = num_clients / 4;
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
  return cache->emplace(num_clients, std::move(prepared)).first->second;
}

void Report(benchmark::State& state, const PreparedProblem& prepared) {
  const auto n = static_cast<double>(prepared.workload->db.TotalTuples());
  state.counters["tuples"] = n;
  state.counters["max_degree"] =
      static_cast<double>(prepared.problem.degrees.max_degree);
  state.counters["per_nlogn"] = benchmark::Counter(
      n * std::log2(n),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.counters["per_n2"] = benchmark::Counter(
      n * n, benchmark::Counter::kIsIterationInvariantRate |
                 benchmark::Counter::kInvert);
}

void BM_ModifiedGreedyBoundedDegree(benchmark::State& state) {
  const PreparedProblem& prepared =
      ClientBuyProblem(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    auto solution = ModifiedGreedySetCover(prepared.csr);
    benchmark::DoNotOptimize(solution.ok());
  }
  Report(state, prepared);
}

void BM_GreedyBoundedDegree(benchmark::State& state) {
  const PreparedProblem& prepared =
      ClientBuyProblem(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    auto solution = GreedySetCover(prepared.csr);
    benchmark::DoNotOptimize(solution.ok());
  }
  Report(state, prepared);
}

void BM_ModifiedGreedyHotspotDegree(benchmark::State& state) {
  const PreparedProblem& prepared =
      HotspotProblem(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto solution = ModifiedGreedySetCover(prepared.csr);
    benchmark::DoNotOptimize(solution.ok());
  }
  Report(state, prepared);
}

}  // namespace

BENCHMARK(BM_GreedyBoundedDegree)
    ->Unit(benchmark::kMillisecond)
    ->RangeMultiplier(2)
    ->Range(2000, 32000);
BENCHMARK(BM_ModifiedGreedyBoundedDegree)
    ->Unit(benchmark::kMillisecond)
    ->RangeMultiplier(2)
    ->Range(2000, 256000);
BENCHMARK(BM_ModifiedGreedyHotspotDegree)
    ->Unit(benchmark::kMillisecond)
    ->RangeMultiplier(2)
    ->Range(2000, 32000);

BENCHMARK_MAIN();
