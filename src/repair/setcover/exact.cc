#include <algorithm>
#include <string>
#include <vector>

#include "obs/context.h"
#include "repair/setcover/csr_instance.h"
#include "repair/setcover/solvers.h"

namespace dbrepair {

namespace {

struct SearchState {
  const CsrSetCoverInstance* view = nullptr;
  uint64_t max_nodes = 0;
  uint64_t nodes = 0;
  bool exhausted = false;

  // cover_count[e]: how many chosen sets cover element e.
  std::vector<uint32_t> cover_count;
  size_t remaining = 0;
  double acc_weight = 0.0;
  std::vector<uint32_t> stack;

  // Admissible lower bound: every cover pays at least
  // sum over uncovered e of min_{s containing e} w(s)/|s|.
  std::vector<double> min_ratio;
  double lb_sum = 0.0;

  double best_weight = 0.0;
  std::vector<uint32_t> best_chosen;

  void Cover(uint32_t s) {
    acc_weight += view->weight(s);
    stack.push_back(s);
    for (const uint32_t e : view->elements_of(s)) {
      if (cover_count[e]++ == 0) {
        --remaining;
        lb_sum -= min_ratio[e];
      }
    }
  }

  void Uncover(uint32_t s) {
    acc_weight -= view->weight(s);
    stack.pop_back();
    for (const uint32_t e : view->elements_of(s)) {
      if (--cover_count[e] == 0) {
        ++remaining;
        lb_sum += min_ratio[e];
      }
    }
  }

  void Search() {
    if (exhausted) return;
    if (++nodes > max_nodes) {
      exhausted = true;
      return;
    }
    if (remaining == 0) {
      if (acc_weight < best_weight) {
        best_weight = acc_weight;
        best_chosen = stack;
      }
      return;
    }
    if (acc_weight + lb_sum >= best_weight - 1e-12) return;

    // Branch on the most constrained uncovered element.
    uint32_t branch_e = 0;
    size_t branch_degree = SIZE_MAX;
    for (uint32_t e = 0; e < view->num_elements(); ++e) {
      if (cover_count[e] > 0) continue;
      const size_t degree = view->sets_of(e).size();
      if (degree < branch_degree) {
        branch_degree = degree;
        branch_e = e;
        if (degree <= 1) break;
      }
    }
    // Try the covering sets cheapest-first for early tight bounds.
    const auto linked = view->sets_of(branch_e);
    std::vector<uint32_t> candidates(linked.begin(), linked.end());
    std::sort(candidates.begin(), candidates.end(),
              [&](uint32_t a, uint32_t b) {
                return view->weight(a) < view->weight(b);
              });
    for (const uint32_t s : candidates) {
      Cover(s);
      Search();
      Uncover(s);
      if (exhausted) return;
    }
  }
};

}  // namespace

Result<SetCoverSolution> ExactSetCover(const CsrSetCoverInstance& view,
                                       ExactSetCoverOptions options) {
  // Seed the incumbent with the greedy solution so pruning bites early.
  DBREPAIR_ASSIGN_OR_RETURN(const SetCoverSolution greedy,
                            ModifiedGreedySetCover(view));
  SearchState state;
  state.view = &view;
  state.max_nodes = options.max_nodes;
  state.cover_count.assign(view.num_elements(), 0);
  state.remaining = view.num_elements();
  state.best_weight = greedy.weight + 1e-9;
  state.best_chosen = greedy.chosen;

  state.min_ratio.assign(view.num_elements(), 0.0);
  for (uint32_t e = 0; e < view.num_elements(); ++e) {
    double best = 0.0;
    bool first = true;
    for (const uint32_t s : view.sets_of(e)) {
      const double ratio =
          view.weight(s) / static_cast<double>(view.elements_of(s).size());
      if (first || ratio < best) {
        best = ratio;
        first = false;
      }
    }
    state.min_ratio[e] = best;
    state.lb_sum += best;
  }

  state.Search();
  obs::MetricsRegistry& metrics = obs::CurrentObs().metrics;
  metrics.GetCounter("solver.exact.runs")->Add(1);
  metrics.GetCounter("solver.exact.search_nodes")->Add(state.nodes);
  if (state.exhausted) {
    return Status::ResourceExhausted("exact set cover exceeded max_nodes = " +
                                     std::to_string(options.max_nodes));
  }

  SetCoverSolution solution;
  solution.chosen = state.best_chosen;
  for (const uint32_t s : solution.chosen) solution.weight += view.weight(s);
  solution.iterations = state.nodes;
  return solution;
}

Result<SetCoverSolution> SolveSetCover(SolverKind kind,
                                       const CsrSetCoverInstance& instance) {
  const obs::ScopedWorkEvent solve_event(
      std::string("solve.") + SolverKindName(kind));
  switch (kind) {
    case SolverKind::kGreedy:
      return GreedySetCover(instance);
    case SolverKind::kModifiedGreedy:
      return ModifiedGreedySetCover(instance);
    case SolverKind::kLazyGreedy:
      return LazyGreedySetCover(instance);
    case SolverKind::kLayer:
      return LayerSetCover(instance);
    case SolverKind::kModifiedLayer:
      return ModifiedLayerSetCover(instance);
    case SolverKind::kExact:
      return ExactSetCover(instance);
  }
  return Status::InvalidArgument("unknown solver kind");
}

}  // namespace dbrepair
