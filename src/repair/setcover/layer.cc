#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/context.h"
#include "repair/setcover/csr_instance.h"
#include "repair/setcover/indexed_heap.h"
#include "repair/setcover/solvers.h"

namespace dbrepair {

// Residual sets as one flat arena (same structure as greedy's): contiguous
// per-set spans compacted in place, so the round scans stream the arena
// instead of hopping between per-set heap allocations.
Result<SetCoverSolution> LayerSetCover(const CsrSetCoverInstance& view,
                                       const LayerOptions& options) {
  SetCoverSolution solution;
  const size_t num_sets = view.num_sets();
  uint64_t sets_scanned = 0;
  uint64_t reweight_events = 0;

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

  std::vector<double> w_res(num_sets);
  std::vector<bool> alive(num_sets, true);
  std::vector<bool> covered(view.num_elements(), false);
  size_t remaining = view.num_elements();

  // Per-set absolute tolerance for "the residual weight reached zero".
  std::vector<double> tol(num_sets);
  for (uint32_t s = 0; s < num_sets; ++s) {
    w_res[s] = view.weight(s);
    tol[s] = 1e-9 * (view.weight(s) + 1.0);
  }

  // In-place compaction of covered elements out of one residual span.
  auto compact = [&](uint32_t s) {
    const uint32_t begin = res_begin[s];
    uint32_t out = begin;
    for (uint32_t i = begin; i < begin + res_size[s]; ++i) {
      const uint32_t e = residual[i];
      if (!covered[e]) residual[out++] = e;
    }
    res_size[s] = out - begin;
  };

  while (remaining > 0) {
    ++solution.iterations;
    // c = min effective residual weight over alive sets (one scan).
    int best = -1;
    double c = 0.0;
    for (uint32_t s = 0; s < num_sets; ++s) {
      if (!alive[s] || res_size[s] == 0) continue;
      ++sets_scanned;
      const double eff = w_res[s] / static_cast<double>(res_size[s]);
      if (best < 0 || eff < c) {
        best = static_cast<int>(s);
        c = eff;
      }
    }
    if (best < 0) {
      return Status::Internal(
          "layer: uncovered elements remain but no usable set (infeasible "
          "instance)");
    }
    // Subtract c * |s| from every alive set's residual weight.
    for (uint32_t s = 0; s < num_sets; ++s) {
      if (!alive[s] || res_size[s] == 0) continue;
      w_res[s] -= c * static_cast<double>(res_size[s]);
      ++reweight_events;
    }
    // Add the tight sets. The paper's literal rule adds *all* of them; the
    // refined variant re-checks that a set still has uncovered elements
    // after the earlier tight sets of this same batch claimed theirs.
    for (uint32_t s = 0; s < num_sets; ++s) {
      if (!alive[s] || res_size[s] == 0 || w_res[s] > tol[s]) continue;
      alive[s] = false;
      if (!options.add_redundant_tight_sets) {
        compact(s);
        if (res_size[s] == 0) continue;  // refined: skip the useless set
      }
      solution.chosen.push_back(s);
      solution.weight += view.weight(s);
      for (uint32_t i = res_begin[s]; i < res_begin[s] + res_size[s]; ++i) {
        const uint32_t e = residual[i];
        if (!covered[e]) {
          covered[e] = true;
          --remaining;
        }
      }
    }
    // Remove the newly covered elements from every remaining residual set.
    for (uint32_t s = 0; s < num_sets; ++s) {
      if (!alive[s] || res_size[s] == 0) continue;
      compact(s);
      if (res_size[s] == 0) alive[s] = false;
    }
  }
  obs::MetricsRegistry& metrics = obs::CurrentObs().metrics;
  metrics.GetCounter("solver.layer.runs")->Add(1);
  metrics.GetCounter("solver.layer.iterations")->Add(solution.iterations);
  metrics.GetCounter("solver.layer.sets_scanned")->Add(sets_scanned);
  metrics.GetCounter("solver.layer.reweight_events")->Add(reweight_events);
  return solution;
}

Result<SetCoverSolution> ModifiedLayerSetCover(
    const CsrSetCoverInstance& view, const LayerOptions& options) {
  SetCoverSolution solution;
  const size_t num_sets = view.num_sets();
  uint64_t heap_pops = 0;
  uint64_t cross_link_updates = 0;

  // Primal-dual (event-driven) formulation of layering: every uncovered
  // element pays at unit rate; set s becomes *tight* at the time its
  // uncovered elements have jointly paid w(s). The heap orders tightening
  // events; covering elements changes only the rates of linked sets.
  std::vector<uint32_t> uncovered_count(num_sets);
  std::vector<double> slack(num_sets);  // unpaid weight at last settle
  std::vector<double> settled_at(num_sets, 0.0);
  IndexedHeap heap(num_sets);
  for (uint32_t s = 0; s < num_sets; ++s) {
    uncovered_count[s] = static_cast<uint32_t>(view.elements_of(s).size());
    slack[s] = view.weight(s);
    if (uncovered_count[s] > 0) {
      heap.Push(s, slack[s] / uncovered_count[s]);
    }
  }

  std::vector<bool> covered(view.num_elements(), false);
  size_t remaining = view.num_elements();
  double now = 0.0;

  auto choose = [&](uint32_t s) {
    solution.chosen.push_back(s);
    solution.weight += view.weight(s);
  };

  while (remaining > 0) {
    ++solution.iterations;
    if (heap.empty()) {
      return Status::Internal(
          "modified layer: uncovered elements remain but the queue is empty "
          "(infeasible instance)");
    }
    const auto [chosen, tight_time] = heap.Top();
    heap.Pop();
    ++heap_pops;
    now = std::max(now, tight_time);
    // A set tight "now" belongs to the same batch as earlier pops at this
    // time; equality is tested with a scale-aware tolerance.
    const double batch_tol = 1e-9 * (now + 1.0);
    choose(chosen);

    for (const uint32_t e : view.elements_of(chosen)) {
      if (covered[e]) continue;
      covered[e] = true;
      --remaining;
      for (const uint32_t other : view.sets_of(e)) {
        if (other == chosen || !heap.Contains(other)) continue;
        ++cross_link_updates;
        // Settle the payment stream up to `now`, then slow the rate.
        slack[other] -= static_cast<double>(uncovered_count[other]) *
                        (now - settled_at[other]);
        if (slack[other] < 0.0) slack[other] = 0.0;
        settled_at[other] = now;
        if (--uncovered_count[other] == 0) {
          // The set can no longer tighten. Under the paper's literal batch
          // rule it still joins the cover if it was already tight in this
          // batch (its scheduled tight-time is "now").
          if (options.add_redundant_tight_sets &&
              heap.KeyOf(other) <= now + batch_tol) {
            choose(other);
          }
          heap.Remove(other);
        } else {
          heap.Update(other, now + slack[other] / uncovered_count[other]);
        }
      }
    }
  }
  obs::MetricsRegistry& metrics = obs::CurrentObs().metrics;
  metrics.GetCounter("solver.modified-layer.runs")->Add(1);
  metrics.GetCounter("solver.modified-layer.iterations")
      ->Add(solution.iterations);
  metrics.GetCounter("solver.modified-layer.heap_pops")->Add(heap_pops);
  metrics.GetCounter("solver.modified-layer.cross_link_updates")
      ->Add(cross_link_updates);
  return solution;
}

}  // namespace dbrepair
