#include "obs/context.h"
#include "repair/setcover/csr_instance.h"
#include "repair/setcover/indexed_heap.h"
#include "repair/setcover/solvers.h"

namespace dbrepair {

Result<SetCoverSolution> ModifiedGreedySetCover(
    const CsrSetCoverInstance& view) {
  SetCoverSolution solution;
  const size_t num_sets = view.num_sets();
  uint64_t heap_pops = 0;
  uint64_t cross_link_updates = 0;

  std::vector<uint32_t> uncovered_count(num_sets);
  IndexedHeap heap(num_sets);
  for (uint32_t s = 0; s < num_sets; ++s) {
    uncovered_count[s] = static_cast<uint32_t>(view.elements_of(s).size());
    if (uncovered_count[s] > 0) {
      heap.Push(s, view.weight(s) / uncovered_count[s]);
    }
  }

  std::vector<bool> covered(view.num_elements(), false);
  size_t remaining = view.num_elements();

  while (remaining > 0) {
    ++solution.iterations;
    if (heap.empty()) {
      return Status::Internal(
          "modified greedy: uncovered elements remain but the queue is "
          "empty (infeasible instance)");
    }
    const uint32_t chosen = heap.Top().first;
    heap.Pop();
    ++heap_pops;
    solution.chosen.push_back(chosen);
    solution.weight += view.weight(chosen);

    for (const uint32_t e : view.elements_of(chosen)) {
      if (covered[e]) continue;
      covered[e] = true;
      --remaining;
      // Reprice every other set containing e via the element links.
      for (const uint32_t other : view.sets_of(e)) {
        if (other == chosen || !heap.Contains(other)) continue;
        ++cross_link_updates;
        if (--uncovered_count[other] == 0) {
          heap.Remove(other);
        } else {
          heap.Update(other, view.weight(other) / uncovered_count[other]);
        }
      }
    }
  }
  obs::MetricsRegistry& metrics = obs::CurrentObs().metrics;
  metrics.GetCounter("solver.modified-greedy.runs")->Add(1);
  metrics.GetCounter("solver.modified-greedy.iterations")
      ->Add(solution.iterations);
  metrics.GetCounter("solver.modified-greedy.heap_pops")->Add(heap_pops);
  metrics.GetCounter("solver.modified-greedy.cross_link_updates")
      ->Add(cross_link_updates);
  return solution;
}

}  // namespace dbrepair
