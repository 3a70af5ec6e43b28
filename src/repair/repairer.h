#ifndef DBREPAIR_REPAIR_REPAIRER_H_
#define DBREPAIR_REPAIR_REPAIRER_H_

#include <optional>
#include <vector>

#include "common/status.h"
#include "constraints/ast.h"
#include "repair/distance.h"
#include "repair/instance_builder.h"
#include "repair/repair_builder.h"
#include "repair/setcover/instance.h"
#include "repair/setcover/solvers.h"
#include "storage/database.h"

namespace dbrepair {

/// Configuration of the end-to-end repair pipeline (Algorithm 6).
struct RepairOptions {
  SolverKind solver = SolverKind::kModifiedGreedy;
  DistanceKind distance = DistanceKind::kL1;
  /// Re-run the violation engine on the produced repair and fail if any
  /// violation remains (should never trigger for local ICs).
  bool verify = true;
  /// Reject non-local IC sets up front. Disable only for experiments that
  /// deliberately feed non-local constraints.
  bool require_local = true;
  /// Post-process the cover with PruneRedundantSets before materialising
  /// the repair (never worsens the distance; an ablation of the pipeline).
  bool prune_cover = false;
  /// Worker threads for the violation scan, in the build and in verify;
  /// every other phase is one serial pass. 0 (the default) means one per
  /// hardware thread; 1 is the exact serial path. Any value produces a
  /// byte-identical repair: the scan shards its driving table and merges
  /// the per-shard buffers in shard order, so no output ever depends on
  /// thread scheduling. Overrides `build.num_threads`.
  size_t num_threads = 0;
  BuildOptions build;

  /// Rejects option combinations that silently do something other than what
  /// the caller wrote:
  ///  * `build.num_threads` set to anything the pipeline would override —
  ///    `num_threads` governs every phase, and a conflicting build value
  ///    would be discarded without notice;
  ///  * `prune_cover` with `verify` off — pruning re-derives coverage from
  ///    the instance, so running it unverified hides an infeasible cover.
  /// Called by every entry point (RepairDatabase, RepairSession::Open, the
  /// CLI); library callers constructing options by hand can call it early
  /// for a better error location.
  Status Validate() const;
};

/// Statistics the pipeline gathers along the way.
struct RepairStats {
  size_t num_violations = 0;
  /// Violation-set count per constraint, in IC order: (name, count).
  std::vector<std::pair<std::string, size_t>> violations_per_constraint;
  size_t num_candidate_fixes = 0;
  size_t num_chosen_fixes = 0;
  size_t num_updates = 0;
  uint32_t max_degree = 0;  ///< Deg(D, IC)
  /// Conflict components of the MWSCP instance (the decomposition quality:
  /// how many independent sub-instances the locality property yields).
  size_t num_components = 0;
  double cover_weight = 0.0;
  double distance = 0.0;  ///< Delta(D, D') of the produced repair
  /// Tuples of D participating in at least one violation set.
  size_t inconsistent_tuples = 0;
  /// The repair-distance inconsistency measure of the input: `distance`
  /// normalized by |D| (see repair/inconsistency.h). 0 iff D was already
  /// consistent.
  double inconsistency = 0.0;
  /// Phase wall times, all derived from the obs span tree (one steady
  /// clock, no overlap: verify is its own phase, not part of apply).
  double build_seconds = 0.0;
  double solve_seconds = 0.0;
  double apply_seconds = 0.0;
  double verify_seconds = 0.0;
  /// Duration of the whole `repair` span (>= the phase sum; the remainder
  /// is stats bookkeeping and the update-list distance sum).
  double total_seconds = 0.0;
};

/// The pipeline's output: the repaired instance plus diagnostics.
struct RepairOutcome {
  Database repaired;
  RepairStats stats;
  std::vector<AppliedUpdate> updates;
};

/// End-to-end attribute-update repair (Algorithm 6):
/// bind -> check locality -> build MWSCP (Algorithms 2-4) -> solve
/// (Algorithm 1/5, layer, or exact) -> materialise D(C) (Definition 3.2)
/// -> verify.
///
/// Returns an approximate repair: a consistent instance whose distance to
/// `db` is within the solver's approximation factor of the optimum.
Result<RepairOutcome> RepairDatabase(const Database& db,
                                     const std::vector<DenialConstraint>& ics,
                                     const RepairOptions& options = {});

/// Overload taking pre-bound constraints (skips parsing/binding). Both
/// overloads run the same pipeline; this one is what RepairSession and the
/// reduction tests use after binding once up front.
Result<RepairOutcome> RepairDatabase(const Database& db,
                                     const std::vector<BoundConstraint>& ics,
                                     const RepairOptions& options = {});

}  // namespace dbrepair

#endif  // DBREPAIR_REPAIR_REPAIRER_H_
