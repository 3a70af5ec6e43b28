#ifndef DBREPAIR_REPAIR_SETCOVER_SOLVERS_H_
#define DBREPAIR_REPAIR_SETCOVER_SOLVERS_H_

#include "common/status.h"
#include "repair/setcover/csr_instance.h"

namespace dbrepair {

// Every solver below reads the frozen flat-arena view (csr_instance.h):
// set->element and element->set spans stream contiguously, so the hot
// loops never pointer-chase. Callers freeze the build record once
// (CsrSetCoverInstance::Freeze) and solve over the view; no solver copies
// it. Ties always break on the smaller set id, so every solver is
// deterministic.

/// Algorithm 1: the textbook weighted-greedy (Chvatal). Each iteration
/// rescans every remaining set for the minimum effective weight
/// w(s)/|s \ covered| and removes covered elements from the residual sets
/// (materialised as one flat arena, compacted in place).
/// O(n^3) in general, O(n^2) under bounded degree (Proposition 3.5).
/// Approximation factor H_k (logarithmic).
Result<SetCoverSolution> GreedySetCover(const CsrSetCoverInstance& instance);

/// Algorithm 5: the paper's modified greedy. Sets live in an indexed
/// priority queue keyed by effective weight; the element->set links update
/// only the affected entries. O(n^2 log n) in general, O(n log n) under
/// bounded degree (Proposition 3.7). Produces exactly the same cover as
/// GreedySetCover (same tie-breaking on set id). The cross-link walk reads
/// one contiguous span per element. One SolveDelta of a fresh
/// IncrementalGreedySolver (incremental.h), the loop repair sessions
/// continue batch after batch.
Result<SetCoverSolution> ModifiedGreedySetCover(
    const CsrSetCoverInstance& instance);

/// Greedy with *lazy* key maintenance: sets sit in a heap under possibly
/// stale effective weights; on pop the key is recomputed and the set is
/// re-inserted if it rose. Correct because covering elements only ever
/// *increases* effective weights, so a popped entry whose recomputed key is
/// still minimal is the true argmin. Produces exactly the same cover as
/// GreedySetCover / ModifiedGreedySetCover; an ablation of the paper's
/// eager linked-structure updates (same asymptotics, different constants:
/// no element->set link walking on the hot path — only the set->element
/// spans are read).
Result<SetCoverSolution> LazyGreedySetCover(
    const CsrSetCoverInstance& instance);

struct LayerOptions {
  /// The paper's text reads "adding to the cover, in each iteration, the
  /// sets with weight zero": *every* tight set joins the cover, even one
  /// whose uncovered elements were just claimed by an earlier tight set of
  /// the same batch. That redundancy is why layer's approximations trail
  /// greedy's in Figure 2 (the f*OPT bound still holds: the primal-dual
  /// accounting charges every tight set). Setting this false skips sets
  /// with no uncovered elements left — a refinement the paper does not do.
  bool add_redundant_tight_sets = true;
};

/// The layer (layering) algorithm [Hochbaum ch.3 / Vazirani]: repeatedly
/// subtract c * |s \ covered| with c the minimum effective weight, adding
/// the sets whose residual weight reaches zero. Approximation factor f (the
/// maximum element frequency). Rescans all alive sets every round over the
/// flat residual arena.
Result<SetCoverSolution> LayerSetCover(const CsrSetCoverInstance& instance,
                                       const LayerOptions& options = {});

/// The layer algorithm on the modified data structure: event-driven
/// primal-dual formulation. Each set becomes tight when its uncovered
/// elements have jointly paid its weight; a heap orders tightening events
/// and the element->set links reprice only affected sets. Computes the same
/// cover as LayerSetCover up to floating-point drift.
Result<SetCoverSolution> ModifiedLayerSetCover(
    const CsrSetCoverInstance& instance, const LayerOptions& options = {});

struct ExactSetCoverOptions {
  /// Abort with ResourceExhausted after this many search nodes.
  uint64_t max_nodes = 50'000'000;
};

/// Exact branch-and-bound optimum. Exponential; used as the reference line
/// in approximation-quality experiments and in tests on small instances.
/// Branching walks the element->set links.
Result<SetCoverSolution> ExactSetCover(const CsrSetCoverInstance& instance,
                                       ExactSetCoverOptions options = {});

/// Dispatches on `kind`.
Result<SetCoverSolution> SolveSetCover(SolverKind kind,
                                       const CsrSetCoverInstance& instance);

}  // namespace dbrepair

#endif  // DBREPAIR_REPAIR_SETCOVER_SOLVERS_H_
