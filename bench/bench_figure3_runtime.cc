// Figure 3 — "Running Time": MWSCP-solver running time of the four
// algorithms (greedy, modified greedy, layer, modified layer) across
// database sizes on the Section-4 Client/Buy workload. As in the paper,
// only the solver component is timed; the instance is built once per size
// outside the timed region.
//
// Shape to reproduce: both modified variants beat their unmodified
// counterparts at scale, and the modified greedy is the fastest overall.
// The unmodified (quadratic) algorithms are capped at sizes where they stay
// tractable — the paper, too, could only run them at the lower end.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "bench_util.h"
#include "constraints/violation_engine.h"
#include "obs/context.h"
#include "obs/events.h"
#include "repair/setcover/solvers.h"
#include "storage/column_view.h"

using namespace dbrepair;        // NOLINT(build/namespaces)
using namespace dbrepair::bench; // NOLINT(build/namespaces)

namespace {

void RunSolver(benchmark::State& state, SolverKind kind) {
  const auto clients = static_cast<size_t>(state.range(0));
  const PreparedProblem& prepared = ClientBuyProblem(clients, /*seed=*/1);
  double weight = 0;
  for (auto _ : state) {
    auto solution = SolveSetCover(kind, prepared.csr);
    if (!solution.ok()) {
      state.SkipWithError(solution.status().ToString().c_str());
      return;
    }
    weight = solution->weight;
    benchmark::DoNotOptimize(solution->chosen.data());
  }
  state.counters["tuples"] = static_cast<double>(
      prepared.workload->db.TotalTuples());
  state.counters["violations"] =
      static_cast<double>(prepared.problem.violations.size());
  state.counters["sets"] =
      static_cast<double>(prepared.csr.num_sets());
  state.counters["cover_weight"] = weight;
}

// Thread sweep over the build phase (Algorithms 2-4): the violation scan,
// fix generation, and fix-to-violation linking all shard across the worker
// count, so build time should drop with threads while the resulting
// instance stays byte-identical (asserted by tests/repair/differential_test).
void BM_BuildPipelineThreads(benchmark::State& state) {
  const auto clients = static_cast<size_t>(state.range(0));
  const auto threads = static_cast<size_t>(state.range(1));
  // Prepare the workload once (memoised); only BuildRepairProblem is timed.
  const PreparedProblem& prepared = ClientBuyProblem(clients, /*seed=*/1);
  BuildOptions options;
  options.num_threads = threads;
  const DistanceFunction distance(DistanceKind::kL1);
  size_t num_sets = 0;
  for (auto _ : state) {
    auto problem = BuildRepairProblem(prepared.workload->db, prepared.bound,
                                      distance, options);
    if (!problem.ok()) {
      state.SkipWithError(problem.status().ToString().c_str());
      return;
    }
    num_sets = problem->instance.sets.size();
    benchmark::DoNotOptimize(problem->fixes.data());
  }
  state.counters["tuples"] =
      static_cast<double>(prepared.workload->db.TotalTuples());
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["sets"] = static_cast<double>(num_sets);
}

// The tracing tax, measured inside one process: each of range(2) pairs
// times BuildRepairProblem once with event recording off and once on
// (EventCollector::set_enabled; the order alternates per pair), so both
// sides share one heap, one scheduler history and one host phase. Reports
// the median off time and the median per-pair on-minus-off difference;
// tools/check_obs_overhead.sh turns them into the overhead percentage.
void BM_ObsOverheadPaired(benchmark::State& state) {
  const auto clients = static_cast<size_t>(state.range(0));
  const auto threads = static_cast<size_t>(state.range(1));
  const auto pairs = static_cast<size_t>(state.range(2));
  const PreparedProblem& prepared = ClientBuyProblem(clients, /*seed=*/1);
  BuildOptions options;
  options.num_threads = threads;
  const DistanceFunction distance(DistanceKind::kL1);
  obs::EventCollector& events = obs::DefaultObs().events;
  const bool was_enabled = events.enabled();

  // Milliseconds of one build with recording `on`; negative on failure.
  const auto timed_build = [&](bool on) {
    events.set_enabled(on);
    const auto start = std::chrono::steady_clock::now();
    auto problem = BuildRepairProblem(prepared.workload->db, prepared.bound,
                                      distance, options);
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    if (!problem.ok()) {
      state.SkipWithError(problem.status().ToString().c_str());
      return -1.0;
    }
    benchmark::DoNotOptimize(problem->fixes.data());
    return elapsed.count();
  };

  std::vector<double> off_ms;
  std::vector<double> delta_ms;
  for (auto _ : state) {
    if (timed_build(false) < 0 || timed_build(true) < 0) break;  // warm-up
    for (size_t pair = 0; pair < pairs; ++pair) {
      double off = 0.0;
      double on = 0.0;
      if (pair % 2 == 0) {
        off = timed_build(false);
        on = timed_build(true);
      } else {
        on = timed_build(true);
        off = timed_build(false);
      }
      if (off < 0 || on < 0) break;
      off_ms.push_back(off);
      delta_ms.push_back(on - off);
    }
  }
  events.set_enabled(was_enabled);
  const auto median = [](std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  state.counters["off_ms"] = median(off_ms);
  state.counters["delta_ms"] = median(delta_ms);
  state.counters["pairs"] = static_cast<double>(off_ms.size());
}

// The single-threaded build phase on the Figure-3 100k scale.
// items_per_second is tuples scanned per second of build time.
void BM_BuildPipelineColumnarScan(benchmark::State& state) {
  const auto clients = static_cast<size_t>(state.range(0));
  const PreparedProblem& prepared = ClientBuyProblem(clients, /*seed=*/1);
  BuildOptions options;
  options.num_threads = 1;
  const DistanceFunction distance(DistanceKind::kL1);
  size_t num_sets = 0;
  for (auto _ : state) {
    auto problem = BuildRepairProblem(prepared.workload->db, prepared.bound,
                                      distance, options);
    if (!problem.ok()) {
      state.SkipWithError(problem.status().ToString().c_str());
      return;
    }
    num_sets = problem->instance.sets.size();
    benchmark::DoNotOptimize(problem->fixes.data());
  }
  const auto tuples = prepared.workload->db.TotalTuples();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * tuples));
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["sets"] = static_cast<double>(num_sets);
}

// The build phase's violation scan in isolation — scanning the driving
// tables and probing the join indexes to enumerate the violation sets.
// Each iteration runs the scan exactly as BuildRepairProblem does: a fresh
// snapshot and a fresh engine (planner stats and join indexes rebuilt,
// nothing amortised across iterations).
// items_per_second = tuples scanned per second of scan time.
void BM_ViolationScanColumnar(benchmark::State& state) {
  const auto clients = static_cast<size_t>(state.range(0));
  const PreparedProblem& prepared = ClientBuyProblem(clients, /*seed=*/1);
  size_t num_violations = 0;
  for (auto _ : state) {
    const ColumnSnapshot snapshot =
        ColumnSnapshot::Build(prepared.workload->db);
    ViolationEngineOptions options;
    options.columnar = &snapshot;
    ViolationEngine engine(prepared.workload->db, prepared.bound, options);
    auto violations = engine.FindViolations();
    if (!violations.ok()) {
      state.SkipWithError(violations.status().ToString().c_str());
      return;
    }
    num_violations = violations->size();
    benchmark::DoNotOptimize(violations->data());
  }
  const auto tuples = prepared.workload->db.TotalTuples();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * tuples));
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["violations"] = static_cast<double>(num_violations);
}

void BM_Greedy(benchmark::State& state) {
  RunSolver(state, SolverKind::kGreedy);
}
void BM_ModifiedGreedy(benchmark::State& state) {
  RunSolver(state, SolverKind::kModifiedGreedy);
}
void BM_Layer(benchmark::State& state) {
  RunSolver(state, SolverKind::kLayer);
}
void BM_ModifiedLayer(benchmark::State& state) {
  RunSolver(state, SolverKind::kModifiedLayer);
}

}  // namespace

// The unmodified algorithms rescan all sets per iteration: quadratic in the
// number of inconsistencies. Cap them at 30k clients (~90k tuples).
BENCHMARK(BM_Greedy)->Unit(benchmark::kMillisecond)->Arg(1000)->Arg(3000)
    ->Arg(10000)->Arg(30000);
BENCHMARK(BM_Layer)->Unit(benchmark::kMillisecond)->Arg(1000)->Arg(3000)
    ->Arg(10000)->Arg(30000);
// The modified algorithms scale to the paper's "one million or more tuples".
BENCHMARK(BM_ModifiedGreedy)->Unit(benchmark::kMillisecond)->Arg(1000)
    ->Arg(3000)->Arg(10000)->Arg(30000)->Arg(100000)->Arg(350000);
BENCHMARK(BM_ModifiedLayer)->Unit(benchmark::kMillisecond)->Arg(1000)
    ->Arg(3000)->Arg(10000)->Arg(30000)->Arg(100000)->Arg(350000);
// Build-phase scaling: {clients} x {worker threads}.
BENCHMARK(BM_BuildPipelineThreads)
    ->Unit(benchmark::kMillisecond)
    ->ArgsProduct({{30000, 100000}, {1, 2, 4, 8}});
// Tracing overhead guard input: {clients, worker threads, off/on pairs}.
BENCHMARK(BM_ObsOverheadPaired)
    ->Unit(benchmark::kMillisecond)
    ->Args({30000, 4, 61})
    ->Iterations(1);
// The scan at the Figure-3 100k scale, single thread.
BENCHMARK(BM_BuildPipelineColumnarScan)
    ->Unit(benchmark::kMillisecond)->Arg(1000)->Arg(100000);
BENCHMARK(BM_ViolationScanColumnar)
    ->Unit(benchmark::kMillisecond)->Arg(1000)->Arg(100000);

BENCHMARK_MAIN();
