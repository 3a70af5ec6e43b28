#include "repair/setcover/prune.h"

#include <algorithm>
#include <vector>

namespace dbrepair {

SetCoverSolution PruneRedundantSets(const CsrSetCoverInstance& view,
                                    const SetCoverSolution& solution) {
  std::vector<uint32_t> coverage(view.num_elements(), 0);
  for (const uint32_t s : solution.chosen) {
    for (const uint32_t e : view.elements_of(s)) ++coverage[e];
  }

  std::vector<uint32_t> order = solution.chosen;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (view.weight(a) != view.weight(b)) {
      return view.weight(a) > view.weight(b);
    }
    return a < b;
  });

  std::vector<bool> removed(view.num_sets(), false);
  for (const uint32_t s : order) {
    bool redundant = true;
    for (const uint32_t e : view.elements_of(s)) {
      if (coverage[e] < 2) {
        redundant = false;
        break;
      }
    }
    if (!redundant) continue;
    removed[s] = true;
    for (const uint32_t e : view.elements_of(s)) --coverage[e];
  }

  SetCoverSolution pruned;
  pruned.iterations = solution.iterations;
  for (const uint32_t s : solution.chosen) {
    if (!removed[s]) {
      pruned.chosen.push_back(s);
      pruned.weight += view.weight(s);
    }
  }
  return pruned;
}

}  // namespace dbrepair
