#ifndef DBREPAIR_REPAIR_INSTANCE_BUILDER_H_
#define DBREPAIR_REPAIR_INSTANCE_BUILDER_H_

#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "constraints/ast.h"
#include "constraints/violation.h"
#include "constraints/violation_engine.h"
#include "repair/distance.h"
#include "repair/mono_local_fix.h"
#include "repair/setcover/components.h"
#include "repair/setcover/instance.h"
#include "storage/column_view.h"
#include "storage/database.h"

namespace dbrepair {

/// Everything the solvers and the repair constructor need: the violation
/// array A (Algorithm 2), the candidate mono-local fixes with their solved
/// links (Algorithms 3+4), and the pure MWSCP view of them
/// (Definition 3.1).
struct RepairProblem {
  std::vector<ViolationSet> violations;
  std::vector<CandidateFix> fixes;
  SetCoverInstance instance;
  DegreeInfo degrees;
  /// Conflict components of `instance` (the paper's locality decomposition:
  /// violation sets linked by shared candidate fixes). Computed from the
  /// freshly built sets; the repairer reports their count and a session
  /// keeps the index live across batches.
  ComponentIndex components;
  /// The columnar snapshot the violation scan ran against, copied out of
  /// the engine (sharing its column vectors and dictionary) by the
  /// overloads that construct one; empty after the ViolationEngine
  /// overload. The repairer's verify phase Rebase()s it over the repaired
  /// clone instead of re-snapshotting the untouched relations.
  ColumnSnapshot snapshot;
};

struct BuildOptions {
  /// `engine.num_threads` is overridden by `num_threads` below, so one knob
  /// governs the whole build. The violation scan runs against
  /// `engine.columnar` when set, else against a ColumnSnapshot of `db`
  /// built here.
  ViolationEngineOptions engine;
  /// Worker threads for the violation scan, the build's only parallel
  /// phase (the snapshot, fix generation and linking are serial passes).
  /// 1 (the default) is the exact serial path; 0 means one per hardware
  /// thread. Any value produces a byte-identical RepairProblem: the scan's
  /// shards partition the driving table and are merged in shard order, so
  /// fix ids, solved-set order, and the MWSCP instance never change.
  size_t num_threads = 1;
};

/// Algorithms 3+4 over an arbitrary violation subset: computes the
/// deduplicated candidate mono-local fixes of `violations` and links each
/// against the violation sets it solves. `solved` holds *global* violation
/// ids — the position within `violations` plus `vid_offset` — so a repair
/// session generating fixes for one batch's new violations can append them
/// straight to its frozen CsrSetCoverInstance (the full build passes 0).
/// Candidates whose solved list is empty are dropped (Definition 2.6(b)).
/// Weights are computed against the tuples' *current* cell values. One
/// serial pass each: fix ids are first-encounter order and each `solved`
/// list is ascending.
///
/// Precondition: every set in `violations` is a violation set of `db` as it
/// is at call time (its members satisfy its constraint's body). The
/// closed-form link rule relies on it: for a constraint that repeats no
/// relation, it decides whether a fix solves a set from the constraint's
/// comparisons alone, without reading the set's cells. BuildRepairProblem
/// scans `db` itself, and a session passes the sets it has just detected
/// on its current instance, so both meet it.
Result<std::vector<CandidateFix>> GenerateCandidateFixes(
    const Database& db, const std::vector<BoundConstraint>& ics,
    const DistanceFunction& distance,
    const std::vector<ViolationSet>& violations, uint32_t vid_offset);
/// Kept only for the ledger's staged replay, which still passes a thread
/// count and a pool; both are ignored. Delete with that replay (ROADMAP
/// item 1).
inline Result<std::vector<CandidateFix>> GenerateCandidateFixes(
    const Database& db, const std::vector<BoundConstraint>& ics,
    const DistanceFunction& distance,
    const std::vector<ViolationSet>& violations, uint32_t vid_offset, size_t,
    ThreadPool*) {
  return GenerateCandidateFixes(db, ics, distance, violations, vid_offset);
}

/// Builds the MWSCP instance (U, S, w)^(D, IC) of Definition 3.1:
///  1. enumerate violation sets (Algorithm 2);
///  2. for every ic, relation R in ic, flexible attribute A of R in ic's
///     built-ins, and tuple t of R occurring in a violation of ic, compute
///     MLF(t, ic, A) (Algorithm 3); candidates are deduplicated on
///     (tuple, attribute, new value) — MLF(t, ic1, A) and MLF(t, ic2, A)
///     may coincide and must become one set-cover column;
///  3. link each candidate t' of tuple t against every violation set I
///     containing t, keeping I in S(t, t') iff (I \ {t}) union {t'}
///     satisfies I's constraint (Algorithm 4);
///  4. drop candidates whose S(t, t') is empty (Definition 2.6(b)).
///
/// Fails with Internal if some violation set ends up coverable by no fix —
/// impossible for a local IC set, so callers should EnsureLocal first.
///
/// Scans engine.ics() over engine.db() on `engine`, so a caller that keeps
/// the engine (a repair session) keeps the snapshot, join indexes and
/// planner statistics the scan built.
Result<RepairProblem> BuildRepairProblem(ViolationEngine& engine,
                                         const DistanceFunction& distance);
/// Builds on a ViolationEngine made from `options` and copies its snapshot
/// into RepairProblem::snapshot.
Result<RepairProblem> BuildRepairProblem(
    const Database& db, const std::vector<BoundConstraint>& ics,
    const DistanceFunction& distance, const BuildOptions& options = {});
/// Kept only for the ledger's staged replay, which still passes a pool; the
/// pool is ignored (the scan runs on the engine's own). Delete with that
/// replay (ROADMAP item 1).
inline Result<RepairProblem> BuildRepairProblem(
    const Database& db, const std::vector<BoundConstraint>& ics,
    const DistanceFunction& distance, const BuildOptions& options,
    ThreadPool*) {
  return BuildRepairProblem(db, ics, distance, options);
}

}  // namespace dbrepair

#endif  // DBREPAIR_REPAIR_INSTANCE_BUILDER_H_
