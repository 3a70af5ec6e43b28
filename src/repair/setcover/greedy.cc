#include <cstdint>
#include <vector>

#include "obs/context.h"
#include "repair/setcover/csr_instance.h"
#include "repair/setcover/solvers.h"

namespace dbrepair {

// The residual sets ("S <- S \ M" materialised) as one flat arena: every
// set's remaining elements occupy a contiguous span that is compacted in
// place as elements get covered; a span's size is the set's uncovered
// count, the denominator of its effective weight.
Result<SetCoverSolution> GreedySetCover(const CsrSetCoverInstance& view) {
  SetCoverSolution solution;
  const size_t num_sets = view.num_sets();
  uint64_t sets_scanned = 0;

  std::vector<uint32_t> res_begin(num_sets);
  std::vector<uint32_t> res_size(num_sets);
  size_t total = 0;
  for (uint32_t s = 0; s < num_sets; ++s) total += view.elements_of(s).size();
  std::vector<uint32_t> residual;
  residual.reserve(total);
  for (uint32_t s = 0; s < num_sets; ++s) {
    const auto span = view.elements_of(s);
    res_begin[s] = static_cast<uint32_t>(residual.size());
    res_size[s] = static_cast<uint32_t>(span.size());
    residual.insert(residual.end(), span.begin(), span.end());
  }

  std::vector<bool> alive(num_sets, true);
  std::vector<bool> covered(view.num_elements(), false);
  size_t remaining = view.num_elements();

  while (remaining > 0) {
    ++solution.iterations;
    // Scan every alive set for the smallest effective weight w(s)/|s|.
    int best = -1;
    double best_eff = 0.0;
    for (uint32_t s = 0; s < num_sets; ++s) {
      if (!alive[s] || res_size[s] == 0) continue;
      ++sets_scanned;
      const double eff = view.weight(s) / static_cast<double>(res_size[s]);
      if (best < 0 || eff < best_eff ||
          (eff == best_eff && s < static_cast<uint32_t>(best))) {
        best = static_cast<int>(s);
        best_eff = eff;
      }
    }
    if (best < 0) {
      return Status::Internal(
          "greedy: uncovered elements remain but no usable set (infeasible "
          "instance)");
    }
    const auto chosen = static_cast<uint32_t>(best);
    solution.chosen.push_back(chosen);
    solution.weight += view.weight(chosen);
    alive[chosen] = false;
    for (uint32_t i = res_begin[chosen]; i < res_begin[chosen] + res_size[chosen];
         ++i) {
      const uint32_t e = residual[i];
      if (!covered[e]) {
        covered[e] = true;
        --remaining;
      }
    }
    // Compact the newly covered elements out of every other residual span.
    for (uint32_t s = 0; s < num_sets; ++s) {
      if (!alive[s] || res_size[s] == 0) continue;
      const uint32_t begin = res_begin[s];
      uint32_t out = begin;
      for (uint32_t i = begin; i < begin + res_size[s]; ++i) {
        const uint32_t e = residual[i];
        if (!covered[e]) residual[out++] = e;
      }
      res_size[s] = out - begin;
    }
  }
  obs::MetricsRegistry& metrics = obs::CurrentObs().metrics;
  metrics.GetCounter("solver.greedy.runs")->Add(1);
  metrics.GetCounter("solver.greedy.iterations")->Add(solution.iterations);
  metrics.GetCounter("solver.greedy.sets_scanned")->Add(sets_scanned);
  return solution;
}

}  // namespace dbrepair
