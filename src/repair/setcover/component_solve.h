#ifndef DBREPAIR_REPAIR_SETCOVER_COMPONENT_SOLVE_H_
#define DBREPAIR_REPAIR_SETCOVER_COMPONENT_SOLVE_H_

// Compatibility shims for the former per-component solve, kept only because
// the ledger's staged replay (benchmark/workload_oneshot.cc) still includes
// this header. Every solver now runs once over the whole instance: the
// modified greedy's O(n log n) bound under bounded degree (Proposition 3.7)
// is a monolithic bound, and one pass beat a pool task per conflict
// component (see DESIGN.md "Conflict components"). New code calls
// SolveSetCover.

#include "common/status.h"
#include "common/thread_pool.h"
#include "repair/setcover/components.h"
#include "repair/setcover/csr_instance.h"
#include "repair/setcover/solvers.h"

namespace dbrepair {

/// Always false: no solver kind is solved per component any more.
inline bool SolverShardsByComponent(SolverKind /*kind*/) { return false; }

/// Kept for its field names; SolveSetCoverSharded always reports zeros.
struct ShardedSolveStats {
  size_t components = 0;
  uint64_t max_component_us = 0;
};

/// Zeroes `stats` and returns SolveSetCover(kind, csr); `partition` and
/// `pool` are ignored.
inline Result<SetCoverSolution> SolveSetCoverSharded(
    SolverKind kind, const CsrSetCoverInstance& csr,
    const ComponentPartition& /*partition*/, ThreadPool* /*pool*/,
    ShardedSolveStats* stats = nullptr) {
  if (stats != nullptr) *stats = ShardedSolveStats{};
  return SolveSetCover(kind, csr);
}

}  // namespace dbrepair

#endif  // DBREPAIR_REPAIR_SETCOVER_COMPONENT_SOLVE_H_
