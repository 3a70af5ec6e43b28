#include "repair/session.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/thread_pool.h"
#include "constraints/locality.h"
#include "obs/context.h"
#include "obs/trace.h"
#include "repair/instance_builder.h"

namespace dbrepair {

namespace {

// Releases the session's busy flag on every exit path of ApplyBatch. The
// flag must already have been acquired by the caller.
class BusyGuard {
 public:
  explicit BusyGuard(std::atomic<bool>* busy) : busy_(busy) {}
  ~BusyGuard() { busy_->store(false, std::memory_order_release); }
  BusyGuard(const BusyGuard&) = delete;
  BusyGuard& operator=(const BusyGuard&) = delete;

 private:
  std::atomic<bool>* busy_;
};

Status ValidateSessionOptions(const RepairOptions& options) {
  DBREPAIR_RETURN_IF_ERROR(options.Validate());
  switch (options.solver) {
    case SolverKind::kGreedy:
    case SolverKind::kModifiedGreedy:
    case SolverKind::kLazyGreedy:
      break;  // all three compute the greedy cover the session maintains.
    default:
      return Status::InvalidArgument(
          std::string("repair sessions maintain the cover with incremental "
                      "modified greedy (the greedy-family cover); solver '") +
          SolverKindName(options.solver) +
          "' cannot be maintained incrementally");
  }
  if (options.prune_cover) {
    return Status::InvalidArgument(
        "repair sessions do not support prune_cover: pruned sets would "
        "desync the cached incremental solver state");
  }
  if (!options.require_local) {
    return Status::InvalidArgument(
        "repair sessions require require_local: delta maintenance is only "
        "sound when repairs move cells monotonically (local IC sets)");
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<RepairSession>> RepairSession::Open(
    const Database& db, const std::vector<DenialConstraint>& ics,
    const RepairOptions& options) {
  DBREPAIR_ASSIGN_OR_RETURN(std::vector<BoundConstraint> bound,
                            BindAll(db.schema(), ics));
  return Open(db, std::move(bound), options);
}

Result<std::unique_ptr<RepairSession>> RepairSession::Open(
    const Database& db, std::vector<BoundConstraint> ics,
    const RepairOptions& options) {
  DBREPAIR_RETURN_IF_ERROR(ValidateSessionOptions(options));
  std::unique_ptr<RepairSession> session(
      new RepairSession(db, std::move(ics), options));
  DBREPAIR_RETURN_IF_ERROR(session->Init());
  return session;
}

RepairSession::RepairSession(const Database& db,
                             std::vector<BoundConstraint> ics,
                             const RepairOptions& options)
    : options_(options),
      distance_(options.distance),
      num_threads_(ResolveNumThreads(options.num_threads)),
      db_(db.Clone()),
      bound_(std::move(ics)) {}

RepairSession::~RepairSession() = default;

Status RepairSession::Init() {
  obs::ObsContext& obs = obs::CurrentObs();
  obs::Span open_span(&obs.events, "session.open");
  {
    obs::Span locality_span(&obs.events, "locality");
    DBREPAIR_RETURN_IF_ERROR(EnsureLocal(db_.schema(), bound_));
  }

  // Full build of the initial problem on the session's own engine; the
  // session adopts every structure the one-shot pipeline would discard,
  // the engine's snapshot, join indexes and statistics included.
  ViolationEngineOptions engine_options = options_.build.engine;
  engine_options.num_threads = num_threads_;
  engine_ = std::make_unique<ViolationEngine>(db_, bound_, engine_options);
  DBREPAIR_ASSIGN_OR_RETURN(RepairProblem problem,
                            BuildRepairProblem(*engine_, distance_));
  violations_ = std::move(problem.violations);
  AddToCensus(violations_);
  fixes_ = std::move(problem.fixes);
  components_ = std::move(problem.components);
  component_count_.store(components_.num_components(),
                         std::memory_order_relaxed);

  fix_ids_.reserve(fixes_.size());
  for (uint32_t f = 0; f < fixes_.size(); ++f) {
    fix_ids_.emplace(FixKey{fixes_[f].tuple.Packed(), fixes_[f].attribute,
                            fixes_[f].new_value},
                     f);
    std::vector<uint32_t>().swap(fixes_[f].solved);  // csr_ holds the links
  }

  // Freeze the built instance once; the incremental solver reads only the
  // flat view and every batch grows it by appending its epoch.
  csr_ = CsrSetCoverInstance::Freeze(problem.instance);
  solver_ = std::make_unique<IncrementalGreedySolver>(&csr_);

  obs::Span solve_span(&obs.events, "solve");
  DBREPAIR_ASSIGN_OR_RETURN(const SetCoverSolution solution,
                            solver_->SolveDelta());
  const double open_solve_seconds = solve_span.Finish();

  obs::Span apply_span(&obs.events, "apply");
  std::vector<std::vector<uint32_t>> updated_rows;
  DBREPAIR_RETURN_IF_ERROR(ApplyChosen(solution, &updated_rows, &open_updates_));
  const size_t num_updates = open_updates_.size();
  const double open_apply_seconds = apply_span.Finish();

  double open_verify_seconds = 0.0;
  if (options_.verify && num_updates > 0) {
    obs::Span verify_span(&obs.events, "verify");
    // Every residual violation set would have to touch an updated row: an
    // untouched one existed pre-apply, was enumerated, and was covered by a
    // chosen fix — which updates one of its tuples.
    // ApplyChosen lists each relation's updated rows ascending.
    DBREPAIR_ASSIGN_OR_RETURN(const std::vector<ViolationSet> leftover,
                              engine_->FindViolationsTouching(updated_rows));
    open_verify_seconds = verify_span.Finish();
    if (!leftover.empty()) {
      return Status::Internal(
          "initial session repair left " + std::to_string(leftover.size()) +
          " violation sets unresolved; the IC set is not local");
    }
  }

  stats_.total_rows_inserted = 0;
  stats_.total_violations = violations_.size();
  stats_.total_fixes = fixes_.size();
  stats_.total_updates = num_updates;
  stats_.cover_weight = solution.weight;

  obs.metrics.GetCounter("session.open.count")->Add(1);
  obs.metrics.GetCounter("session.open.violations")->Add(violations_.size());
  obs.metrics.GetCounter("session.open.updates")->Add(num_updates);
  obs.metrics.GetGauge("session.cover_weight")->Set(stats_.cover_weight);
  obs.metrics.GetGauge("session.distance")->Set(cumulative_distance_);

  // The initial full repair is telemetry batch 0.
  BatchStats open_batch;
  open_batch.num_new_violations = violations_.size();
  open_batch.num_new_fixes = fixes_.size();
  open_batch.num_chosen_fixes = solution.chosen.size();
  open_batch.num_updates = num_updates;
  open_batch.cover_weight = solution.weight;
  open_batch.solve_seconds = open_solve_seconds;
  open_batch.apply_seconds = open_apply_seconds;
  open_batch.verify_seconds = open_verify_seconds;
  open_batch.total_seconds = open_span.Finish();
  RecordBatchTelemetry(/*batch_id=*/0, open_batch);
  return Status::OK();
}

Status RepairSession::AppendBatch(const std::vector<BatchRow>& rows,
                                  const std::vector<uint32_t>& first_new_row,
                                  std::vector<uint32_t>* appended_relations) {
  // Each relation's cells, row-major in batch order: its rows get the ids
  // per-row inserts in batch order would give them.
  std::vector<std::vector<Value>> cells(db_.relation_count());
  for (size_t i = 0; i < rows.size(); ++i) {
    const BatchRow& row = rows[i];
    DBREPAIR_ASSIGN_OR_RETURN(const uint32_t rel,
                              db_.RelationIndex(row.relation));
    const RelationSchema& schema = db_.schema().relations()[rel];
    if (row.values.size() != schema.arity()) {
      return Status::InvalidArgument(
          "batch row " + std::to_string(i) + ": arity mismatch for '" +
          schema.name() + "': expected " + std::to_string(schema.arity()) +
          " values, got " + std::to_string(row.values.size()));
    }
    cells[rel].insert(cells[rel].end(), row.values.begin(), row.values.end());
  }
  // AppendRows checks types and keys (against the stored rows and within
  // the batch) and appends nothing when it fails; a relation that fails
  // after others were appended truncates those back, keys included.
  appended_relations->clear();
  for (uint32_t rel = 0; rel < cells.size(); ++rel) {
    if (cells[rel].empty()) continue;
    const Status appended = db_.mutable_table(rel).AppendRows(cells[rel]);
    if (!appended.ok()) {
      for (const uint32_t done : *appended_relations) {
        db_.mutable_table(done).Truncate(first_new_row[done]);
      }
      return appended;
    }
    appended_relations->push_back(rel);
  }
  return Status::OK();
}

Result<BatchStats> RepairSession::ApplyBatch(const std::vector<BatchRow>& rows) {
  if (busy_.exchange(true, std::memory_order_acq_rel)) {
    return Status::InvalidArgument(
        "RepairSession::ApplyBatch is not reentrant: another batch is still "
        "being applied");
  }
  BusyGuard guard(&busy_);
  if (poisoned_) {
    return Status::Internal(
        "repair session poisoned by an earlier failed batch; reopen it");
  }

  obs::ObsContext& obs = obs::CurrentObs();
  obs::Span batch_span(&obs.events, "session.batch");
  BatchStats batch;
  batch.num_rows = rows.size();

  // ---- 1. Append each relation's rows in one pass. A bad batch appends
  // nothing, so it leaves the session untouched. ----
  std::vector<uint32_t> first_new_row(db_.relation_count());
  for (uint32_t r = 0; r < db_.relation_count(); ++r) {
    first_new_row[r] = static_cast<uint32_t>(db_.table(r).size());
  }
  std::vector<uint32_t> appended_relations;
  DBREPAIR_RETURN_IF_ERROR(
      AppendBatch(rows, first_new_row, &appended_relations));

  // From here on every failure leaves cached state out of sync with the
  // inserted rows, so it poisons the session.
  const auto poison = [this](Status status) {
    poisoned_ = true;
    return status;
  };

  // ---- 2. Grow the engine's snapshot by exactly the appended suffix. ----
  engine_->NoteRowChanges(appended_relations, {});
  obs.metrics.GetCounter("session.batch.snapshot_extends")->Add(1);

  // ---- 3. Delta-join: violation sets involving at least one new row. ----
  obs::Span detect_span(&obs.events, "detect");
  // Each relation's appended rows, ascending; the verify reuses the lists.
  std::vector<std::vector<uint32_t>> appended_rows(db_.relation_count());
  for (uint32_t r = 0; r < db_.relation_count(); ++r) {
    appended_rows[r].resize(db_.table(r).size() - first_new_row[r]);
    std::iota(appended_rows[r].begin(), appended_rows[r].end(),
              first_new_row[r]);
  }
  Result<std::vector<ViolationSet>> new_violations =
      engine_->FindViolationsTouching(appended_rows);
  if (!new_violations.ok()) return poison(new_violations.status());
  batch.num_new_violations = new_violations->size();
  batch.detect_seconds = detect_span.Finish();

  // ---- 4. Fixes for the new violation sets only; patch them in. ----
  const uint32_t vid_offset = static_cast<uint32_t>(violations_.size());
  Result<std::vector<CandidateFix>> new_fixes =
      GenerateCandidateFixes(db_, bound_, distance_, *new_violations,
                             vid_offset);
  if (!new_fixes.ok()) return poison(new_fixes.status());

  obs::Span patch_span(&obs.events, "patch");
  Status patched = PatchInstance(std::move(*new_violations),
                                 std::move(*new_fixes), &batch);
  if (!patched.ok()) return poison(std::move(patched));
  batch.patch_seconds = patch_span.Finish();

  // ---- 5. Continue the greedy loop; apply what it picks. ----
  obs::Span solve_span(&obs.events, "solve");
  Result<SetCoverSolution> solution = solver_->SolveDelta();
  if (!solution.ok()) return poison(solution.status());
  batch.num_chosen_fixes = solution->chosen.size();
  batch.cover_weight = solution->weight;
  batch.solve_seconds = solve_span.Finish();

  obs::Span apply_span(&obs.events, "apply");
  std::vector<std::vector<uint32_t>> updated_rows;
  Status applied = ApplyChosen(*solution, &updated_rows, &batch.updates);
  if (!applied.ok()) return poison(std::move(applied));
  const size_t num_updates = batch.updates.size();
  batch.num_updates = num_updates;
  batch.apply_seconds = apply_span.Finish();

  // ---- 6. Incremental verify over this batch's dirty rows. ----
  if (options_.verify) {
    obs::Span verify_span(&obs.events, "verify");
    // The dirty rows: each relation's updated rows below the batch
    // (ascending, from ApplyChosen), then the batch's own rows.
    for (uint32_t r = 0; r < db_.relation_count(); ++r) {
      std::vector<uint32_t>& dirty = updated_rows[r];
      dirty.erase(
          std::lower_bound(dirty.begin(), dirty.end(), first_new_row[r]),
          dirty.end());
      dirty.insert(dirty.end(), appended_rows[r].begin(),
                   appended_rows[r].end());
    }
    Result<std::vector<ViolationSet>> leftover =
        engine_->FindViolationsTouching(updated_rows);
    if (!leftover.ok()) return poison(leftover.status());
    batch.verify_seconds = verify_span.Finish();
    if (!leftover->empty()) {
      return poison(Status::Internal(
          "batch left " + std::to_string(leftover->size()) +
          " violation sets unresolved (first: " +
          (*leftover)[0].ToString() + ")"));
    }
  }

  stats_.num_batches += 1;
  stats_.total_rows_inserted += rows.size();
  stats_.total_violations = violations_.size();
  stats_.total_fixes = fixes_.size();
  stats_.total_updates += num_updates;
  stats_.cover_weight += solution->weight;

  obs.metrics.GetCounter("session.batch.count")->Add(1);
  obs.metrics.GetCounter("session.batch.rows")->Add(rows.size());
  obs.metrics.GetCounter("session.batch.new_violations")
      ->Add(batch.num_new_violations);
  obs.metrics.GetCounter("session.batch.new_sets")->Add(batch.num_new_fixes);
  obs.metrics.GetCounter("session.batch.extended_sets")
      ->Add(batch.num_extended_fixes);
  obs.metrics.GetCounter("session.batch.chosen_sets")
      ->Add(batch.num_chosen_fixes);
  obs.metrics.GetCounter("session.batch.updates")->Add(num_updates);
  obs.metrics.GetGauge("session.cover_weight")->Set(stats_.cover_weight);
  obs.metrics.GetGauge("session.distance")->Set(cumulative_distance_);

  batch.total_seconds = batch_span.Finish();
  RecordBatchTelemetry(stats_.num_batches, batch);
  return batch;
}

void RepairSession::RecordBatchTelemetry(uint64_t batch_id,
                                         const BatchStats& batch) {
  BatchTelemetry record;
  record.batch = batch_id;
  record.rows = batch.num_rows;
  record.new_violations = batch.num_new_violations;
  record.new_sets = batch.num_new_fixes;
  record.extended_sets = batch.num_extended_fixes;
  record.chosen_sets = batch.num_chosen_fixes;
  record.updates = batch.num_updates;
  record.csr_arena_bytes = csr_.arena_bytes();
  record.csr_dead_slots = csr_.dead_slots();
  record.components = components_.num_components();
  record.components_touched = batch.components_touched;
  record.components_merged = batch.components_merged;
  component_count_.store(record.components, std::memory_order_relaxed);
  record.detect_seconds = batch.detect_seconds;
  record.patch_seconds = batch.patch_seconds;
  record.solve_seconds = batch.solve_seconds;
  record.apply_seconds = batch.apply_seconds;
  record.verify_seconds = batch.verify_seconds;
  record.total_seconds = batch.total_seconds;
  record.cover_weight = stats_.cover_weight;
  record.cumulative_distance = cumulative_distance_;
  // The rolling trend keeps only the cheap normalization (the full
  // inconsistent-tuple census is available on demand via inconsistency()).
  record.inconsistency =
      ComputeInconsistencyMeasure(cumulative_distance_, db_.TotalTuples(),
                                  /*inconsistent_tuples=*/0,
                                  /*violation_sets=*/0)
          .normalized;
  record.inconsistency_delta = record.inconsistency - last_inconsistency_;
  last_inconsistency_ = record.inconsistency;
  telemetry_.push_back(record);
  if (telemetry_.size() > kTelemetryWindow) telemetry_.pop_front();

  obs::ObsContext& obs = obs::CurrentObs();
  const auto micros = [](double seconds) {
    return static_cast<uint64_t>(std::max(0.0, seconds) * 1e6);
  };
  obs.metrics.GetHistogram("session.batch.detect_us")
      ->Record(micros(batch.detect_seconds));
  obs.metrics.GetHistogram("session.batch.patch_us")
      ->Record(micros(batch.patch_seconds));
  obs.metrics.GetHistogram("session.batch.solve_us")
      ->Record(micros(batch.solve_seconds));
  obs.metrics.GetHistogram("session.batch.apply_us")
      ->Record(micros(batch.apply_seconds));
  obs.metrics.GetHistogram("session.batch.verify_us")
      ->Record(micros(batch.verify_seconds));
  obs.metrics.GetHistogram("session.batch.total_us")
      ->Record(micros(batch.total_seconds));

  obs.metrics.GetGauge("session.components")
      ->Set(static_cast<double>(record.components));

  // Counter tracks: one sample per batch, so the trace viewer shows the
  // session's trend lines, not just final values.
  obs.events.RecordCounter("session.components",
                           static_cast<double>(record.components));
  obs.events.RecordCounter("session.cover_weight", stats_.cover_weight);
  obs.events.RecordCounter("session.distance", cumulative_distance_);
  obs.events.RecordCounter("session.inconsistency", record.inconsistency);
  obs.events.RecordCounter("session.batch.updates",
                           static_cast<double>(batch.num_updates));
}

InconsistencyMeasure RepairSession::inconsistency() const {
  return ComputeInconsistencyMeasure(cumulative_distance_, db_.TotalTuples(),
                                     inconsistent_tuples_, violations_.size());
}

void RepairSession::AddToCensus(const std::vector<ViolationSet>& sets) {
  // Every violation set the session has ever allocated references rows of
  // db_ (rows only append, so the ids stay valid); the census therefore
  // covers the whole stream, not just the current batch.
  in_violation_.resize(db_.relation_count());
  for (const ViolationSet& v : sets) {
    for (const TupleRef& t : v.tuples) {
      std::vector<uint8_t>& marks = in_violation_[t.relation];
      if (t.row >= marks.size()) marks.resize(db_.table(t.relation).size());
      if (marks[t.row] == 0) {
        marks[t.row] = 1;
        ++inconsistent_tuples_;
      }
    }
  }
}

obs::Json RepairSession::TelemetryToJson() const {
  using obs::Json;
  Json window = Json::MakeArray();
  for (const BatchTelemetry& r : telemetry_) {
    Json entry = Json::MakeObject();
    entry.Set("batch", Json(r.batch));
    entry.Set("rows", Json(static_cast<uint64_t>(r.rows)));
    entry.Set("new_violations", Json(static_cast<uint64_t>(r.new_violations)));
    entry.Set("new_sets", Json(static_cast<uint64_t>(r.new_sets)));
    entry.Set("extended_sets", Json(static_cast<uint64_t>(r.extended_sets)));
    entry.Set("chosen_sets", Json(static_cast<uint64_t>(r.chosen_sets)));
    entry.Set("updates", Json(static_cast<uint64_t>(r.updates)));
    entry.Set("csr_arena_bytes",
              Json(static_cast<uint64_t>(r.csr_arena_bytes)));
    entry.Set("csr_dead_slots", Json(static_cast<uint64_t>(r.csr_dead_slots)));
    entry.Set("components", Json(static_cast<uint64_t>(r.components)));
    entry.Set("components_touched",
              Json(static_cast<uint64_t>(r.components_touched)));
    entry.Set("components_merged",
              Json(static_cast<uint64_t>(r.components_merged)));
    entry.Set("detect_seconds", Json(r.detect_seconds));
    entry.Set("patch_seconds", Json(r.patch_seconds));
    entry.Set("solve_seconds", Json(r.solve_seconds));
    entry.Set("apply_seconds", Json(r.apply_seconds));
    entry.Set("verify_seconds", Json(r.verify_seconds));
    entry.Set("total_seconds", Json(r.total_seconds));
    entry.Set("cover_weight", Json(r.cover_weight));
    entry.Set("cumulative_distance", Json(r.cumulative_distance));
    entry.Set("inconsistency", Json(r.inconsistency));
    entry.Set("inconsistency_delta", Json(r.inconsistency_delta));
    window.Append(std::move(entry));
  }
  Json totals = Json::MakeObject();
  totals.Set("num_batches", Json(static_cast<uint64_t>(stats_.num_batches)));
  totals.Set("total_rows_inserted",
             Json(static_cast<uint64_t>(stats_.total_rows_inserted)));
  totals.Set("total_violations",
             Json(static_cast<uint64_t>(stats_.total_violations)));
  totals.Set("total_fixes", Json(static_cast<uint64_t>(stats_.total_fixes)));
  totals.Set("total_updates",
             Json(static_cast<uint64_t>(stats_.total_updates)));
  totals.Set("components",
             Json(static_cast<uint64_t>(components_.num_components())));
  totals.Set("cover_weight", Json(stats_.cover_weight));
  totals.Set("cumulative_distance", Json(cumulative_distance_));
  totals.Set("inconsistency", Json(inconsistency().normalized));
  Json out = Json::MakeObject();
  out.Set("batches_recorded",
          Json(static_cast<uint64_t>(telemetry_.size())));
  out.Set("window", std::move(window));
  out.Set("totals", std::move(totals));
  return out;
}

Status RepairSession::PatchInstance(std::vector<ViolationSet> new_violations,
                                    std::vector<CandidateFix> new_fixes,
                                    BatchStats* stats) {
  const size_t vid_offset = violations_.size();
  const auto first_new_set = static_cast<uint32_t>(csr_.num_sets());
  AddToCensus(new_violations);
  CsrEpochDelta delta;
  delta.new_elements = new_violations.size();
  components_.AddElements(new_violations.size());

  // Phase 1: route each fix to a new set or to an extension of its earlier,
  // still-unchosen set, recording the epoch. Solver callbacks wait until
  // phase 3, after the frozen view has caught up — the solver only ever
  // reads the CSR arenas.
  for (CandidateFix& fix : new_fixes) {
    const FixKey key{fix.tuple.Packed(), fix.attribute, fix.new_value};
    const auto it = fix_ids_.find(key);
    if (it != fix_ids_.end()) {
      // Same (tuple, attribute, value) as an earlier, still-unchosen fix:
      // extend its set with the new violation ids and refresh its weight
      // against the cell's current value (an applied fix on the same cell
      // may have moved it since the set was created).
      const uint32_t set_id = it->second;
      CsrEpochDelta::Extension ext{set_id, std::move(fix.solved), {}};
      if (csr_.weight(set_id) != fix.weight) {
        ext.weight = fix.weight;
        fixes_[set_id].weight = fix.weight;
        fixes_[set_id].old_value = fix.old_value;
      }
      stats->components_merged += components_.ExtendSet(set_id, ext.elements);
      delta.extended.push_back(std::move(ext));
      stats->num_extended_fixes += 1;
    } else {
      stats->components_merged += components_.AddSet(fix.solved);
      fix_ids_.emplace(key, static_cast<uint32_t>(fixes_.size()));
      delta.added.push_back({fix.weight, std::move(fix.solved)});
      fixes_.push_back(std::move(fix));
      stats->num_new_fixes += 1;
    }
  }

  // Phase 2: append this batch's epoch to the flat view.
  DBREPAIR_RETURN_IF_ERROR(csr_.AppendEpoch(delta));

  // Phase 3: replay the delta into the solver. Batching the callbacks
  // after the mutations is order-safe: the heap's pop order depends only
  // on its (key, id) content, each set is touched at most once per batch
  // (fix keys are deduplicated), and none of the callbacks reads covered
  // state another callback writes.
  solver_->OnElementsAdded(delta.new_elements);
  for (const CsrEpochDelta::Extension& ext : delta.extended) {
    if (ext.weight.has_value()) {
      DBREPAIR_RETURN_IF_ERROR(solver_->OnWeightChanged(ext.set_id));
    }
    DBREPAIR_RETURN_IF_ERROR(solver_->OnSetExtended(
        ext.set_id, csr_.set_size(ext.set_id) - ext.elements.size()));
  }
  for (uint32_t s = first_new_set; s < csr_.num_sets(); ++s) {
    DBREPAIR_RETURN_IF_ERROR(solver_->OnSetAdded(s));
  }

  violations_.insert(violations_.end(),
                     std::make_move_iterator(new_violations.begin()),
                     std::make_move_iterator(new_violations.end()));
  for (size_t e = vid_offset; e < violations_.size(); ++e) {
    if (csr_.sets_of(static_cast<uint32_t>(e)).empty()) {
      return Status::Internal(
          "violation set " + violations_[e].ToString() +
          " is solvable by no mono-local fix; the IC set is not local");
    }
  }

  // The delta's locality footprint: how many (post-merge) components this
  // batch's fresh violation sets were routed to.
  std::vector<uint32_t> new_elements(violations_.size() - vid_offset);
  for (size_t e = vid_offset; e < violations_.size(); ++e) {
    new_elements[e - vid_offset] = static_cast<uint32_t>(e);
  }
  stats->components_touched = components_.CountDistinctComponents(new_elements);
  return Status::OK();
}

Status RepairSession::ApplyChosen(
    const SetCoverSolution& solution,
    std::vector<std::vector<uint32_t>>* updated_rows,
    std::vector<AppliedUpdate>* applied) {
  updated_rows->assign(db_.relation_count(), {});

  // Same subsumption rule and (tuple, attribute) application order as
  // ApplyCover.
  DBREPAIR_ASSIGN_OR_RETURN(const std::vector<uint32_t> cells,
                            CoverCellFixes(fixes_, solution.chosen));
  std::vector<CellRef> changed;
  for (const uint32_t set_id : cells) {
    const CandidateFix& fix = fixes_[set_id];
    const std::pair<uint64_t, uint32_t> cell{fix.tuple.Packed(),
                                             fix.attribute};
    const Value& current = db_.tuple(fix.tuple).value(fix.attribute);
    const int64_t current_int = current.is_int() ? current.AsInt() : 0;
    if (current.is_int() && current_int == fix.new_value) continue;

    const double alpha = db_.schema()
                             .relations()[fix.tuple.relation]
                             .attribute(fix.attribute)
                             .alpha;
    const auto [orig_it, first_touch] =
        original_values_.try_emplace(cell, current_int);
    const double original = static_cast<double>(orig_it->second);
    if (!first_touch) {
      cumulative_distance_ -= alpha * distance_.ScalarDistance(
                                          original,
                                          static_cast<double>(current_int));
    }
    cumulative_distance_ +=
        alpha * distance_.ScalarDistance(
                    original, static_cast<double>(fix.new_value));

    DBREPAIR_RETURN_IF_ERROR(
        db_.mutable_table(fix.tuple.relation)
            .UpdateValue(fix.tuple.row, fix.attribute,
                         Value::Int(fix.new_value)));
    applied->push_back(AppliedUpdate{fix.tuple, fix.attribute, current_int,
                                     fix.new_value});
    changed.push_back(CellRef{fix.tuple, fix.attribute});
    std::vector<uint32_t>& rows = (*updated_rows)[fix.tuple.relation];
    if (rows.empty() || rows.back() != fix.tuple.row) {
      rows.push_back(fix.tuple.row);
    }
  }
  engine_->NoteRowChanges({}, changed);
  return Status::OK();
}

}  // namespace dbrepair
