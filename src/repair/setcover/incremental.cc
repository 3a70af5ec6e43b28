#include "repair/setcover/incremental.h"

#include "obs/context.h"
#include "repair/setcover/solvers.h"

namespace dbrepair {

IncrementalGreedySolver::IncrementalGreedySolver(
    const CsrSetCoverInstance* instance)
    : instance_(instance),
      covered_(instance->num_elements(), 0),
      chosen_(instance->num_sets(), 0),
      uncovered_count_(instance->num_sets(), 0),
      heap_(instance->num_sets()),
      remaining_(instance->num_elements()) {
  // Every set with at least one (necessarily uncovered) element enters the
  // queue under its initial effective weight.
  for (uint32_t s = 0; s < instance_->num_sets(); ++s) {
    uncovered_count_[s] = instance_->set_size(s);
    if (uncovered_count_[s] > 0) {
      heap_.Push(s, instance_->weight(s) / uncovered_count_[s]);
    }
  }
}

void IncrementalGreedySolver::OnElementsAdded(size_t count) {
  covered_.resize(covered_.size() + count, 0);
  remaining_ += count;
}

Status IncrementalGreedySolver::OnSetAdded(uint32_t set_id) {
  if (set_id != chosen_.size()) {
    return Status::Internal(
        "incremental solver: sets must be announced in append order");
  }
  if (set_id >= instance_->num_sets()) {
    return Status::Internal(
        "incremental solver: set announced before its epoch was appended");
  }
  chosen_.push_back(0);
  uint32_t uncovered = 0;
  for (const uint32_t e : instance_->elements_of(set_id)) {
    if (e >= covered_.size()) {
      return Status::Internal(
          "incremental solver: set element beyond announced universe");
    }
    if (covered_[e] == 0) ++uncovered;
  }
  uncovered_count_.push_back(uncovered);
  heap_.Reserve(chosen_.size());
  if (uncovered > 0) {
    heap_.Push(set_id, instance_->weight(set_id) / uncovered);
  }
  return Status::OK();
}

Status IncrementalGreedySolver::OnSetExtended(uint32_t set_id,
                                              size_t first_new_index) {
  if (set_id >= chosen_.size()) {
    return Status::Internal("incremental solver: unknown set extended");
  }
  if (chosen_[set_id] != 0) {
    // A chosen fix was applied; fix generation can never emit its key
    // again, so an extension means the session's invariants broke.
    return Status::Internal(
        "incremental solver: a chosen set was extended (stale fix key)");
  }
  const auto set = instance_->elements_of(set_id);
  uint32_t added = 0;
  for (size_t i = first_new_index; i < set.size(); ++i) {
    if (set[i] >= covered_.size()) {
      return Status::Internal(
          "incremental solver: set element beyond announced universe");
    }
    if (covered_[set[i]] == 0) ++added;
  }
  if (added > 0) {
    uncovered_count_[set_id] += added;
    Reprice(set_id);
  }
  return Status::OK();
}

Status IncrementalGreedySolver::OnWeightChanged(uint32_t set_id) {
  if (set_id >= chosen_.size()) {
    return Status::Internal("incremental solver: unknown set repriced");
  }
  if (uncovered_count_[set_id] > 0 && chosen_[set_id] == 0) {
    Reprice(set_id);
  }
  return Status::OK();
}

void IncrementalGreedySolver::Reprice(uint32_t set_id) {
  const double key = instance_->weight(set_id) / uncovered_count_[set_id];
  if (heap_.Contains(set_id)) {
    heap_.Update(set_id, key);
  } else {
    heap_.Push(set_id, key);
  }
}

Result<SetCoverSolution> IncrementalGreedySolver::SolveDelta() {
  SetCoverSolution solution;
  uint64_t heap_pops = 0;
  uint64_t cross_link_updates = 0;

  // Algorithm 5's main loop over the preserved state: pick the set of
  // least effective weight (smaller id on ties), cover its elements, and
  // reprice every other set holding one of them through the element links.
  while (remaining_ > 0) {
    ++solution.iterations;
    if (heap_.empty()) {
      return Status::Internal(
          "incremental greedy: uncovered elements remain but the queue is "
          "empty (infeasible instance patch)");
    }
    const uint32_t picked = heap_.Top().first;
    heap_.Pop();
    ++heap_pops;
    chosen_[picked] = 1;
    solution.chosen.push_back(picked);
    solution.weight += instance_->weight(picked);

    for (const uint32_t e : instance_->elements_of(picked)) {
      if (covered_[e] != 0) continue;
      covered_[e] = 1;
      --remaining_;
      for (const uint32_t other : instance_->sets_of(e)) {
        if (other == picked || !heap_.Contains(other)) continue;
        ++cross_link_updates;
        if (--uncovered_count_[other] == 0) {
          heap_.Remove(other);
        } else {
          heap_.Update(other,
                       instance_->weight(other) / uncovered_count_[other]);
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

Result<SetCoverSolution> ModifiedGreedySetCover(
    const CsrSetCoverInstance& view) {
  IncrementalGreedySolver solver(&view);
  return solver.SolveDelta();
}

}  // namespace dbrepair
