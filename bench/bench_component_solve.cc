// Component-sharded solve — the per-component solve fan-out against the
// monolithic solver on identical multi-component MWSCP instances. Elements
// land in conflict components by a Zipf draw (a few hot components, a long
// tail — the shape the zipf-hotspot scenario induces), sets never cross
// components, and both sides compute byte-identical covers; the pair
// isolates the parallel speedup of dispatching one solve task per component
// onto the shared thread pool (extract + solve + (key, id)-merge, exactly
// the repairer's solve span).
//
// The BM_ComponentSolve/100000/{1,2,4} sweep is the acceptance headline
// merged into BENCH_summary.json by tools/run_benchmarks.sh: the 4-thread
// run must clear 2x over 1 thread at 100k elements.

#include <benchmark/benchmark.h>

#include <cmath>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "repair/setcover/component_solve.h"
#include "repair/setcover/components.h"
#include "repair/setcover/csr_instance.h"
#include "repair/setcover/solvers.h"

using namespace dbrepair;  // NOLINT(build/namespaces)

namespace {

// Multi-component instance in the bounded-degree repair shape: ~1 component
// per 100 elements, element membership Zipf-skewed across components
// (s = 1.0), sets of size <= 4 confined to one component, tie-prone integer
// weights. Feasible by construction (singleton backstop).
SetCoverInstance ZipfComponentInstance(size_t elements, uint64_t seed) {
  Rng rng(seed);
  SetCoverInstance instance;
  instance.num_elements = elements;
  const size_t components = std::max<size_t>(1, elements / 100);

  // Zipf CDF over component ids: component c gets mass ~ 1/(c+1).
  std::vector<double> cdf(components);
  double mass = 0.0;
  for (size_t c = 0; c < components; ++c) {
    mass += 1.0 / static_cast<double>(c + 1);
    cdf[c] = mass;
  }
  for (double& v : cdf) v /= mass;

  std::vector<std::vector<uint32_t>> members(components);
  for (uint32_t e = 0; e < elements; ++e) {
    const double u = rng.NextDouble();
    const size_t c = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    members[std::min(c, components - 1)].push_back(e);
  }

  std::vector<bool> covered(elements, false);
  for (const std::vector<uint32_t>& pool : members) {
    if (pool.empty()) continue;
    const size_t sets = pool.size() * 3 / 2 + 1;
    for (size_t s = 0; s < sets; ++s) {
      std::vector<uint32_t> elems;
      const size_t size = 1 + rng.Uniform(4);
      for (size_t i = 0; i < size; ++i) {
        elems.push_back(pool[rng.Uniform(pool.size())]);
      }
      std::sort(elems.begin(), elems.end());
      elems.erase(std::unique(elems.begin(), elems.end()), elems.end());
      for (const uint32_t e : elems) covered[e] = true;
      instance.sets.push_back(std::move(elems));
      instance.weights.push_back(1.0 + static_cast<double>(rng.Uniform(16)));
    }
  }
  for (uint32_t e = 0; e < elements; ++e) {
    if (!covered[e]) {
      instance.sets.push_back({e});
      instance.weights.push_back(8.0);
    }
  }
  return instance;
}

struct Workload {
  SetCoverInstance instance;
  CsrSetCoverInstance csr;
  ComponentIndex index;
};

const Workload& CachedWorkload(size_t elements) {
  static std::map<size_t, std::unique_ptr<Workload>>* cache =
      new std::map<size_t, std::unique_ptr<Workload>>();
  auto it = cache->find(elements);
  if (it == cache->end()) {
    auto workload = std::make_unique<Workload>();
    workload->instance = ZipfComponentInstance(elements, /*seed=*/42);
    workload->csr = CsrSetCoverInstance::Freeze(workload->instance);
    workload->index = ComponentIndex::Build(workload->instance);
    it = cache->emplace(elements, std::move(workload)).first;
  }
  return *it->second;
}

// The repairer's sharded solve span: partition + per-component extract /
// solve / merge. threads == 1 runs without a pool (the caller-inline path).
void BM_ComponentSolve(benchmark::State& state) {
  const size_t elements = static_cast<size_t>(state.range(0));
  const size_t threads = static_cast<size_t>(state.range(1));
  const Workload& workload = CachedWorkload(elements);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  double weight = 0.0;
  size_t components = 0;
  for (auto _ : state) {
    const ComponentPartition partition = workload.index.Partition();
    auto solution = SolveSetCoverSharded(SolverKind::kModifiedGreedy,
                                         workload.csr, partition, pool.get());
    if (!solution.ok()) {
      state.SkipWithError(solution.status().ToString().c_str());
      return;
    }
    weight = solution->weight;
    components = partition.num_components();
    benchmark::DoNotOptimize(solution->chosen.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * elements));
  state.counters["components"] = static_cast<double>(components);
  state.counters["cover_weight"] = weight;
}

// Baseline: the monolithic solver on the same frozen instance.
void BM_MonolithicSolve(benchmark::State& state) {
  const size_t elements = static_cast<size_t>(state.range(0));
  const Workload& workload = CachedWorkload(elements);
  double weight = 0.0;
  for (auto _ : state) {
    auto solution = SolveSetCover(SolverKind::kModifiedGreedy, workload.csr);
    if (!solution.ok()) {
      state.SkipWithError(solution.status().ToString().c_str());
      return;
    }
    weight = solution->weight;
    benchmark::DoNotOptimize(solution->chosen.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * elements));
  state.counters["cover_weight"] = weight;
}

}  // namespace

BENCHMARK(BM_ComponentSolve)
    ->Unit(benchmark::kMillisecond)
    ->Args({10000, 1})
    ->Args({10000, 2})
    ->Args({10000, 4})
    ->Args({100000, 1})
    ->Args({100000, 2})
    ->Args({100000, 4});
BENCHMARK(BM_MonolithicSolve)
    ->Unit(benchmark::kMillisecond)
    ->Arg(10000)
    ->Arg(100000);

BENCHMARK_MAIN();
