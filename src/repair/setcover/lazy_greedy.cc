#include <queue>
#include <vector>

#include "obs/context.h"
#include "repair/setcover/csr_instance.h"
#include "repair/setcover/solvers.h"

namespace dbrepair {

namespace {

struct LazyEntry {
  double key;
  uint32_t id;
};

struct LazyEntryGreater {
  bool operator()(const LazyEntry& a, const LazyEntry& b) const {
    if (a.key != b.key) return a.key > b.key;
    return a.id > b.id;
  }
};

}  // namespace

Result<SetCoverSolution> LazyGreedySetCover(
    const CsrSetCoverInstance& view) {
  SetCoverSolution solution;
  const size_t num_sets = view.num_sets();
  uint64_t heap_pops = 0;
  uint64_t reinserts = 0;

  std::vector<bool> covered(view.num_elements(), false);
  std::vector<bool> alive(num_sets, true);
  size_t remaining = view.num_elements();

  // Current uncovered count of a set, recomputed by scanning its elements —
  // the lazy strategy needs no element->set reverse links at all.
  auto uncovered = [&](uint32_t s) {
    size_t count = 0;
    for (const uint32_t e : view.elements_of(s)) {
      if (!covered[e]) ++count;
    }
    return count;
  };

  std::priority_queue<LazyEntry, std::vector<LazyEntry>, LazyEntryGreater>
      queue;
  for (uint32_t s = 0; s < num_sets; ++s) {
    const size_t size = view.elements_of(s).size();
    if (size > 0) {
      queue.push(LazyEntry{view.weight(s) / static_cast<double>(size), s});
    }
  }

  while (remaining > 0) {
    if (queue.empty()) {
      return Status::Internal(
          "lazy greedy: uncovered elements remain but the queue is empty "
          "(infeasible instance)");
    }
    const LazyEntry entry = queue.top();
    queue.pop();
    ++heap_pops;
    if (!alive[entry.id]) continue;  // stale duplicate of a chosen set
    const size_t count = uncovered(entry.id);
    if (count == 0) {
      alive[entry.id] = false;
      continue;
    }
    const double key = view.weight(entry.id) / static_cast<double>(count);
    if (key != entry.key) {
      // Stale: effective weights only rise, so reinsert with the fresh key.
      queue.push(LazyEntry{key, entry.id});
      ++reinserts;
      continue;
    }
    // Fresh and minimal: every other stored key is >= entry.key and true
    // keys only exceed stored ones, so this is the eager greedy's argmin
    // (ties resolve to the smaller id through the comparator).
    ++solution.iterations;
    solution.chosen.push_back(entry.id);
    solution.weight += view.weight(entry.id);
    alive[entry.id] = false;
    for (const uint32_t e : view.elements_of(entry.id)) {
      if (!covered[e]) {
        covered[e] = true;
        --remaining;
      }
    }
  }
  obs::MetricsRegistry& metrics = obs::CurrentObs().metrics;
  metrics.GetCounter("solver.lazy-greedy.runs")->Add(1);
  metrics.GetCounter("solver.lazy-greedy.iterations")
      ->Add(solution.iterations);
  metrics.GetCounter("solver.lazy-greedy.heap_pops")->Add(heap_pops);
  metrics.GetCounter("solver.lazy-greedy.reinserts")->Add(reinserts);
  return solution;
}

}  // namespace dbrepair
