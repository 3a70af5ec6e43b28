#include "repair/repairer.h"

#include <algorithm>

#include "constraints/locality.h"
#include "constraints/violation_engine.h"
#include "obs/context.h"
#include "repair/inconsistency.h"
#include "obs/trace.h"
#include "repair/setcover/csr_instance.h"
#include "repair/setcover/prune.h"
#include "repair/setcover/solvers.h"

namespace dbrepair {

namespace {

// The pipeline body, running inside an open `repair` span. Phase times come
// from the spans themselves (one clock source), so the RepairStats fields
// stay populated exactly as before the obs layer existed.
Result<RepairOutcome> RepairBoundImpl(const Database& db,
                                      const std::vector<BoundConstraint>& ics,
                                      const RepairOptions& options,
                                      obs::ObsContext& obs) {
  if (options.require_local) {
    obs::Span locality_span(&obs.events, "locality");
    DBREPAIR_RETURN_IF_ERROR(EnsureLocal(db.schema(), ics));
  }
  const DistanceFunction distance(options.distance);

  obs::Span build_span(&obs.events, "build");
  BuildOptions build_options = options.build;
  build_options.num_threads = options.num_threads;
  DBREPAIR_ASSIGN_OR_RETURN(
      const RepairProblem problem,
      BuildRepairProblem(db, ics, distance, build_options));
  const double build_seconds = build_span.Finish();

  obs::Span solve_span(&obs.events, "solve");
  // Freeze the built instance into the flat CSR view once; the solver's hot
  // loop then streams contiguous arenas. One pass over the whole instance:
  // the modified greedy's bound is O(n log n) under bounded degree
  // (Proposition 3.7), and the conflict components need no separate tasks.
  const CsrSetCoverInstance csr = CsrSetCoverInstance::Freeze(problem.instance);
  DBREPAIR_ASSIGN_OR_RETURN(SetCoverSolution cover,
                            SolveSetCover(options.solver, csr));
  if (options.prune_cover) {
    cover = PruneRedundantSets(csr, cover);
  }
  const double solve_seconds = solve_span.Finish();

  obs::Span apply_span(&obs.events, "apply");
  std::vector<AppliedUpdate> updates;
  DBREPAIR_ASSIGN_OR_RETURN(Database repaired,
                            ApplyCover(db, problem, cover, &updates));
  const double apply_seconds = apply_span.Finish();

  double verify_seconds = 0.0;
  if (options.verify) {
    obs::Span verify_span(&obs.events, "verify");
    ViolationEngineOptions verify_options = build_options.engine;
    verify_options.num_threads = options.num_threads;
    // Re-snapshot only the relations the repair touched; clean relations
    // keep sharing the build snapshot's column vectors.
    std::vector<uint32_t> dirty;
    for (const AppliedUpdate& update : updates) {
      if (std::find(dirty.begin(), dirty.end(), update.tuple.relation) ==
          dirty.end()) {
        dirty.push_back(update.tuple.relation);
      }
    }
    const ColumnSnapshot verify_snapshot =
        problem.snapshot.Rebase(repaired, dirty);
    verify_options.columnar = &verify_snapshot;
    obs.metrics.GetCounter("scan.columnar.resnapshots")->Add(1);
    obs.metrics.GetCounter("scan.columnar.resnapshot_relations")
        ->Add(dirty.size());
    DBREPAIR_ASSIGN_OR_RETURN(
        const bool consistent,
        ViolationEngine::Satisfies(repaired, ics, verify_options));
    verify_seconds = verify_span.Finish();
    if (!consistent) {
      return Status::Internal(
          "produced instance still violates the constraints; the IC set is "
          "not local");
    }
  }

  RepairOutcome outcome{std::move(repaired), RepairStats{}, std::move(updates)};
  outcome.stats.num_violations = problem.violations.size();
  outcome.stats.violations_per_constraint.reserve(ics.size());
  for (const BoundConstraint& ic : ics) {
    size_t count = 0;
    for (const ViolationSet& v : problem.violations) {
      if (v.ic_index == ic.ic_index) ++count;
    }
    outcome.stats.violations_per_constraint.emplace_back(ic.name, count);
    obs.metrics.GetCounter("violations.constraint." + ic.name)->Add(count);
  }
  outcome.stats.num_candidate_fixes = problem.fixes.size();
  outcome.stats.num_chosen_fixes = cover.chosen.size();
  outcome.stats.num_updates = outcome.updates.size();
  outcome.stats.max_degree = problem.degrees.max_degree;
  outcome.stats.num_components = problem.components.num_components();
  outcome.stats.cover_weight = cover.weight;
  // ApplyCover lists the updates in (relation, row, attribute) order, so the
  // sum equals DatabaseDistance(db, repaired) bit for bit without a scan.
  outcome.stats.distance =
      distance.UpdatesDistance(db.schema(), outcome.updates);
  const InconsistencyMeasure measure = ComputeInconsistencyMeasure(
      outcome.stats.distance, db.TotalTuples(),
      problem.degrees.per_tuple.size(), problem.violations.size());
  outcome.stats.inconsistent_tuples = measure.inconsistent_tuples;
  outcome.stats.inconsistency = measure.normalized;
  outcome.stats.build_seconds = build_seconds;
  outcome.stats.solve_seconds = solve_seconds;
  outcome.stats.apply_seconds = apply_seconds;
  outcome.stats.verify_seconds = verify_seconds;

  obs.metrics.GetGauge("repair.max_degree")
      ->Set(static_cast<double>(problem.degrees.max_degree));
  obs.metrics.GetGauge("repair.cover_weight")->Set(cover.weight);
  obs.metrics.GetGauge("repair.distance")->Set(outcome.stats.distance);
  obs.metrics.GetGauge("repair.inconsistency")
      ->Set(outcome.stats.inconsistency);
  obs.metrics.GetCounter("repair.violation_sets")
      ->Add(problem.violations.size());
  obs.metrics.GetCounter("repair.candidate_fixes")->Add(problem.fixes.size());
  obs.metrics.GetCounter("repair.chosen_fixes")->Add(cover.chosen.size());
  obs.metrics.GetCounter("repair.applied_updates")
      ->Add(outcome.updates.size());
  return outcome;
}

}  // namespace

Status RepairOptions::Validate() const {
  if (build.num_threads != 1 && build.num_threads != num_threads) {
    return Status::InvalidArgument(
        "RepairOptions::build.num_threads conflicts with "
        "RepairOptions::num_threads; set num_threads only (it governs every "
        "phase and overrides the build value)");
  }
  if (prune_cover && !verify) {
    return Status::InvalidArgument(
        "RepairOptions::prune_cover requires verify: pruning re-derives "
        "coverage, so an unverified pruned repair could silently stay "
        "inconsistent");
  }
  return Status::OK();
}

Result<RepairOutcome> RepairDatabase(const Database& db,
                                     const std::vector<BoundConstraint>& ics,
                                     const RepairOptions& options) {
  DBREPAIR_RETURN_IF_ERROR(options.Validate());
  obs::ObsContext& obs = obs::CurrentObs();
  obs::Span repair_span(&obs.events, "repair");
  Result<RepairOutcome> outcome = RepairBoundImpl(db, ics, options, obs);
  if (outcome.ok()) outcome.value().stats.total_seconds = repair_span.Finish();
  return outcome;
}

Result<RepairOutcome> RepairDatabase(const Database& db,
                                     const std::vector<DenialConstraint>& ics,
                                     const RepairOptions& options) {
  DBREPAIR_RETURN_IF_ERROR(options.Validate());
  obs::ObsContext& obs = obs::CurrentObs();
  obs::Span repair_span(&obs.events, "repair");
  std::vector<BoundConstraint> bound;
  {
    obs::Span bind_span(&obs.events, "bind");
    DBREPAIR_ASSIGN_OR_RETURN(bound, BindAll(db.schema(), ics));
  }
  Result<RepairOutcome> outcome = RepairBoundImpl(db, bound, options, obs);
  if (outcome.ok()) outcome.value().stats.total_seconds = repair_span.Finish();
  return outcome;
}

}  // namespace dbrepair
