// Micro — the data-structure change in isolation: synthetic MWSCP
// instances with controlled element frequency, comparing the per-iteration
// rescan (Algorithm 1) against the indexed heap + links (Algorithm 5), and
// the batch layering against the event-driven layering. Also times heap
// primitives.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "repair/setcover/csr_instance.h"
#include "repair/setcover/indexed_heap.h"
#include "repair/setcover/solvers.h"

using namespace dbrepair;  // NOLINT(build/namespaces)

namespace {

// Random feasible instance, frozen: `sets` sets of size <= 4 over
// `elements` elements, frequency kept small (each element in ~2-3 sets) to
// model bounded-degree repair instances.
CsrSetCoverInstance RandomInstance(size_t elements, size_t sets,
                                   uint64_t seed) {
  Rng rng(seed);
  SetCoverInstance instance;
  instance.num_elements = elements;
  std::vector<bool> covered(elements, false);
  for (size_t s = 0; s < sets; ++s) {
    std::vector<uint32_t> elems;
    const size_t size = 1 + rng.Uniform(4);
    for (size_t i = 0; i < size; ++i) {
      elems.push_back(static_cast<uint32_t>(rng.Uniform(elements)));
    }
    std::sort(elems.begin(), elems.end());
    elems.erase(std::unique(elems.begin(), elems.end()), elems.end());
    for (const uint32_t e : elems) covered[e] = true;
    instance.sets.push_back(std::move(elems));
    instance.weights.push_back(1.0 + static_cast<double>(rng.Uniform(100)));
  }
  for (uint32_t e = 0; e < elements; ++e) {
    if (!covered[e]) {
      instance.sets.push_back({e});
      instance.weights.push_back(50.0);
    }
  }
  return CsrSetCoverInstance::Freeze(instance);
}

// Built and frozen once per size, outside every timed loop.
const CsrSetCoverInstance& CachedInstance(size_t elements) {
  static auto* cache = new std::map<size_t, CsrSetCoverInstance>();
  const auto it = cache->find(elements);
  if (it != cache->end()) return it->second;
  return cache->emplace(elements,
                        RandomInstance(elements, elements * 3 / 2, 11))
      .first->second;
}

void RunKind(benchmark::State& state, SolverKind kind) {
  const CsrSetCoverInstance& instance =
      CachedInstance(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto solution = SolveSetCover(kind, instance);
    if (!solution.ok()) {
      state.SkipWithError(solution.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(solution->weight);
  }
  state.counters["sets"] = static_cast<double>(instance.num_sets());
}

void BM_MicroGreedy(benchmark::State& state) {
  RunKind(state, SolverKind::kGreedy);
}
void BM_MicroModifiedGreedy(benchmark::State& state) {
  RunKind(state, SolverKind::kModifiedGreedy);
}
void BM_MicroLazyGreedy(benchmark::State& state) {
  RunKind(state, SolverKind::kLazyGreedy);
}
void BM_MicroLayer(benchmark::State& state) {
  RunKind(state, SolverKind::kLayer);
}
void BM_MicroModifiedLayer(benchmark::State& state) {
  RunKind(state, SolverKind::kModifiedLayer);
}

void BM_HeapPushPop(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  std::vector<double> keys(n);
  for (double& k : keys) k = static_cast<double>(rng.Uniform(1 << 20));
  for (auto _ : state) {
    IndexedHeap heap(n);
    for (uint32_t i = 0; i < n; ++i) heap.Push(i, keys[i]);
    double sum = 0;
    while (!heap.empty()) {
      sum += heap.Top().second;
      heap.Pop();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

void BM_HeapUpdateHeavy(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(4);
  for (auto _ : state) {
    IndexedHeap heap(n);
    for (uint32_t i = 0; i < n; ++i) {
      heap.Push(i, static_cast<double>(rng.Uniform(1 << 20)));
    }
    for (size_t step = 0; step < 4 * n; ++step) {
      const auto id = static_cast<uint32_t>(rng.Uniform(n));
      if (heap.Contains(id)) {
        heap.Update(id, static_cast<double>(rng.Uniform(1 << 20)));
      }
    }
    benchmark::DoNotOptimize(heap.Top());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(4 * n));
}

}  // namespace

BENCHMARK(BM_MicroGreedy)->Unit(benchmark::kMillisecond)
    ->Arg(1000)->Arg(10000)->Arg(50000);
BENCHMARK(BM_MicroModifiedGreedy)->Unit(benchmark::kMillisecond)
    ->Arg(1000)->Arg(10000)->Arg(50000)->Arg(500000);
BENCHMARK(BM_MicroLazyGreedy)->Unit(benchmark::kMillisecond)
    ->Arg(1000)->Arg(10000)->Arg(50000)->Arg(500000);
BENCHMARK(BM_MicroLayer)->Unit(benchmark::kMillisecond)
    ->Arg(1000)->Arg(10000)->Arg(50000);
BENCHMARK(BM_MicroModifiedLayer)->Unit(benchmark::kMillisecond)
    ->Arg(1000)->Arg(10000)->Arg(50000)->Arg(500000);
BENCHMARK(BM_HeapPushPop)->Arg(1000)->Arg(100000);
BENCHMARK(BM_HeapUpdateHeavy)->Arg(1000)->Arg(100000);

BENCHMARK_MAIN();
