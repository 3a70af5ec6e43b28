#ifndef DBREPAIR_REPAIR_SETCOVER_INSTANCE_H_
#define DBREPAIR_REPAIR_SETCOVER_INSTANCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dbrepair {

/// A Minimum-Weight Set-Cover instance (U, S, w) (Definition 3.1 view) as
/// the build phase emits it: elements are violation-set ids, sets are
/// candidate-fix ids. A plain build record — CsrSetCoverInstance::Freeze
/// turns it into the flat layout (both incidence directions) that every
/// solver, the pruner and a repair session read.
struct SetCoverInstance {
  size_t num_elements = 0;
  /// Per-set weight w(S_i) >= 0.
  std::vector<double> weights;
  /// Per-set sorted, duplicate-free element ids.
  std::vector<std::vector<uint32_t>> sets;
};

/// A solver's output: chosen set ids (in selection order) and their weight.
struct SetCoverSolution {
  std::vector<uint32_t> chosen;
  double weight = 0.0;
  /// Number of main-loop iterations the solver performed (for diagnostics).
  uint64_t iterations = 0;
};

/// Which approximation algorithm to run.
enum class SolverKind {
  kGreedy,          ///< Algorithm 1: textbook greedy, O(n^2)-O(n^3).
  kModifiedGreedy,  ///< Algorithm 5: heap + links, O(n log n) bounded degree.
  kLazyGreedy,      ///< Greedy with lazy key reevaluation; same cover.
  kLayer,           ///< Layering (Hochbaum/Vazirani), f-approximation.
  kModifiedLayer,   ///< Layering on the linked structure, event-driven.
  kExact,           ///< Branch & bound; exponential, small instances only.
};

const char* SolverKindName(SolverKind kind);

}  // namespace dbrepair

#endif  // DBREPAIR_REPAIR_SETCOVER_INSTANCE_H_
