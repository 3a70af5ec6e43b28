#ifndef DBREPAIR_REPAIR_SESSION_H_
#define DBREPAIR_REPAIR_SESSION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/json.h"
#include "constraints/ast.h"
#include "constraints/violation.h"
#include "constraints/violation_engine.h"
#include "repair/distance.h"
#include "repair/inconsistency.h"
#include "repair/repair_builder.h"
#include "repair/repairer.h"
#include "repair/setcover/components.h"
#include "repair/setcover/csr_instance.h"
#include "repair/setcover/incremental.h"
#include "storage/column_view.h"
#include "storage/database.h"

namespace dbrepair {

/// One row to insert in a batch: target relation by name plus one value per
/// attribute.
struct BatchRow {
  std::string relation;
  std::vector<Value> values;
};

/// Per-ApplyBatch diagnostics (the incremental analogue of RepairStats).
struct BatchStats {
  size_t num_rows = 0;            ///< rows inserted by this batch
  size_t num_new_violations = 0;  ///< violation sets the batch introduced
  size_t num_new_fixes = 0;       ///< fresh set-cover columns added
  size_t num_extended_fixes = 0;  ///< existing columns that gained elements
  size_t num_chosen_fixes = 0;    ///< sets this batch's delta solve picked
  size_t num_updates = 0;         ///< cell updates applied to the instance
  /// Distinct conflict components this batch's new violation sets landed in
  /// (after the batch's merges) — the delta's locality footprint.
  size_t components_touched = 0;
  /// Component merges this batch's fixes caused: each counts two previously
  /// independent solve shards united by a shared candidate fix.
  size_t components_merged = 0;
  /// The cell updates themselves, in deterministic (tuple, attribute)
  /// order — the incremental analogue of RepairOutcome::updates.
  std::vector<AppliedUpdate> updates;
  double cover_weight = 0.0;      ///< weight of this batch's picks
  double detect_seconds = 0.0;
  double patch_seconds = 0.0;
  double solve_seconds = 0.0;
  double apply_seconds = 0.0;
  double verify_seconds = 0.0;
  double total_seconds = 0.0;
};

/// One batch's telemetry record: the rolling time-series the session keeps
/// alongside BatchStats (which is returned to the caller and dropped).
/// Batch ids count ApplyBatch calls from 1; the initial full repair of
/// Open() is batch 0. Exported by RepairSession::TelemetryToJson() into the
/// run snapshot, so per-batch trends (delta sizes, latencies, cumulative
/// repair distance — the session's inconsistency-measurement signal)
/// survive the batch loop.
struct BatchTelemetry {
  uint64_t batch = 0;
  size_t rows = 0;
  size_t new_violations = 0;
  size_t new_sets = 0;       ///< fresh set-cover columns this batch added
  size_t extended_sets = 0;  ///< pre-epoch columns that gained elements
  size_t chosen_sets = 0;
  size_t updates = 0;
  size_t csr_arena_bytes = 0;  ///< frozen-view footprint after the append
  size_t csr_dead_slots = 0;   ///< relocation slack after the append
  size_t components = 0;          ///< live conflict components after the batch
  size_t components_touched = 0;  ///< components this batch's delta landed in
  size_t components_merged = 0;   ///< merges this batch's fixes caused
  double detect_seconds = 0.0;
  double patch_seconds = 0.0;
  double solve_seconds = 0.0;
  double apply_seconds = 0.0;
  double verify_seconds = 0.0;
  double total_seconds = 0.0;
  double cover_weight = 0.0;          ///< session cumulative after the batch
  double cumulative_distance = 0.0;   ///< Delta(inserted, repaired) so far
  /// Repair-distance inconsistency measure of the stream so far: the
  /// cumulative distance normalized by the instance size after this batch
  /// (repair/inconsistency.h). Together with `inconsistency_delta` (the
  /// change versus the previous batch) this is the session's rolling
  /// inconsistency trend.
  double inconsistency = 0.0;
  double inconsistency_delta = 0.0;
};

/// Cumulative totals since Open (the initial full repair counts as batch 0).
struct SessionStats {
  size_t num_batches = 0;  ///< ApplyBatch calls completed (Open excluded)
  size_t total_rows_inserted = 0;
  size_t total_violations = 0;  ///< all violation-set ids ever allocated
  size_t total_fixes = 0;       ///< all set-cover columns ever allocated
  size_t total_updates = 0;
  double cover_weight = 0.0;  ///< summed weight of every chosen set
};

/// A long-lived incremental repair pipeline: open once over a database and
/// its constraints, then feed arriving row batches and keep the instance
/// consistent after each one — without ever rebuilding the set-cover
/// instance or re-joining the old data against itself.
///
/// Open() clones the database, binds and locality-checks the constraints,
/// runs one full repair (build + modified-greedy solve + apply), and caches
/// everything the full pipeline would throw away: the candidate fixes with
/// their (tuple, attribute, value) keys, the frozen MWSCP instance, and the
/// greedy solver's covered/heap state. The build scans on the session's
/// one violation engine, so its columnar snapshot, join indexes and
/// planner statistics live on across batches. Each ApplyBatch then:
///
///  1. appends the rows, grouped by relation in batch order, one
///     Table::AppendRows call per relation (a bad batch appends nothing,
///     so it leaves the session untouched);
///  2. extends the engine's snapshot by exactly the appended suffix (its
///     join indexes grow by the same suffix on their next probe);
///  3. delta-joins only the new rows against the instance
///     (ViolationEngine::FindViolationsTouching over each relation's
///     appended rows) — when the pre-batch instance was consistent these
///     are ALL violation sets of the grown instance;
///  4. generates mono-local fixes for the new violation sets only and
///     appends them to the frozen instance as one epoch (new sets, extended
///     sets, refreshed weights);
///  5. continues the modified-greedy loop over whatever became uncovered,
///     applies the picked fixes and patches exactly the updated cells into
///     the engine's snapshot;
///  6. re-verifies incrementally: only violation sets touching this batch's
///     dirty rows (inserted or updated) are re-enumerated, driven from the
///     ascending list of those rows (step 3's lists plus the updated older
///     rows).
///
/// Every step costs O(batch) in the rows and caches it touches, not
/// O(instance) (DESIGN.md, "What each cache costs per batch").
///
/// Correctness rests on locality (Definition 2.9): repairs move every cell
/// monotonically in one direction, so a covered violation set can never
/// re-violate and a chosen fix's key can never be generated again. The
/// incremental verify in step 6 backstops the argument at runtime.
///
/// After K batches the session database is consistent and the cumulative
/// cover weight is within the solver's approximation factor of the
/// from-scratch optimum on the final data. The whole pipeline is
/// deterministic: any `num_threads` produces a byte-identical database.
///
/// Not thread-safe: ApplyBatch calls must not overlap (a second concurrent
/// call fails with InvalidArgument rather than corrupting state). A batch
/// that fails after it started mutating poisons the session — the caches
/// may no longer match the rows — and every later call fails fast.
class RepairSession {
 public:
  /// Binds `ics` against the schema, validates `options`, and runs the
  /// initial full repair. On return db() is a consistent clone of `db`.
  ///
  /// Beyond RepairOptions::Validate, sessions reject options the
  /// incremental pipeline cannot honour: a solver other than the greedy
  /// family (the cover is maintained by incremental modified greedy, which
  /// computes exactly the greedy cover), `prune_cover` (pruned sets would
  /// desync the cached solver state), and `require_local == false` (the
  /// delta maintenance is only sound for local IC sets).
  static Result<std::unique_ptr<RepairSession>> Open(
      const Database& db, const std::vector<DenialConstraint>& ics,
      const RepairOptions& options = {});

  /// Overload taking pre-bound constraints. The bindings must refer to
  /// `db`'s schema.
  static Result<std::unique_ptr<RepairSession>> Open(
      const Database& db, std::vector<BoundConstraint> ics,
      const RepairOptions& options = {});

  RepairSession(const RepairSession&) = delete;
  RepairSession& operator=(const RepairSession&) = delete;

  ~RepairSession();

  /// Inserts `rows` and restores consistency (steps 1-6 above). The batch
  /// is atomic with respect to validation: when a relation name is unknown
  /// (NotFound), an arity or type is wrong (InvalidArgument) or a primary
  /// key repeats, against the instance or within the batch (KeyViolation),
  /// no row is inserted and the session stays usable. Rows land grouped by
  /// relation, each relation's in batch order, so their row ids are those
  /// per-row inserts in batch order would give.
  Result<BatchStats> ApplyBatch(const std::vector<BatchRow>& rows);

  /// The session's (consistent, repaired) database instance.
  const Database& db() const { return db_; }

  /// The cell updates the initial full repair applied during Open().
  const std::vector<AppliedUpdate>& open_updates() const {
    return open_updates_;
  }

  const SessionStats& stats() const { return stats_; }

  /// Sum over all cells of the weighted distance the session's repairs have
  /// introduced so far, i.e. Delta(inserted data, current data).
  double cumulative_distance() const { return cumulative_distance_; }

  /// The full inconsistency measure of everything streamed so far:
  /// cumulative repair distance normalized by the current instance size,
  /// plus the inconsistent-tuple census over every violation set the
  /// session has seen. Equals the one-shot measure of the final data when
  /// the whole stream arrives as one batch, and tracks it within the
  /// incremental solver's guarantees otherwise. O(1): the census only ever
  /// grows, so each batch adds its new violation sets to it.
  InconsistencyMeasure inconsistency() const;

  /// Every violation set the session has allocated, indexed by element id
  /// of frozen_instance(). Exposed for tests and diagnostics.
  const std::vector<ViolationSet>& violations() const { return violations_; }

  /// The columnar snapshot the session's engine scans; tracks db() cell for
  /// cell. Exposed for tests and diagnostics.
  const ColumnSnapshot& snapshot() const { return engine_->snapshot(); }

  /// The rolling per-batch telemetry window (newest last; the oldest
  /// records are dropped past kTelemetryWindow batches). Batch 0 is the
  /// initial full repair of Open().
  const std::deque<BatchTelemetry>& telemetry() const { return telemetry_; }

  /// Keep at most this many per-batch records (the batches a long-running
  /// session dropped are still summed in stats()).
  static constexpr size_t kTelemetryWindow = 256;

  /// {"batches_recorded": n, "window": [...], "totals": {...}} — the
  /// session section of the run snapshot. Each window entry carries the
  /// batch id, delta sizes, epoch-append stats, phase latencies, and the
  /// cumulative cover weight / repair distance after the batch.
  obs::Json TelemetryToJson() const;

  /// The frozen MWSCP instance the incremental solver reads; grown by one
  /// AppendEpoch per batch. Exposed for tests and diagnostics.
  const CsrSetCoverInstance& frozen_instance() const { return csr_; }

  /// The live conflict-component index over frozen_instance(): adopted from
  /// the initial build and maintained incrementally as each batch's delta
  /// appends elements and adds/extends sets (a batch only ever merges
  /// components, never splits them). Exposed for tests and diagnostics.
  const ComponentIndex& components() const { return components_; }

  /// Conflict components of the current instance. Lock-free: readable by
  /// another thread (the server's STATS path) while a batch is in flight;
  /// the value is the count as of the last completed batch.
  size_t num_components() const {
    return component_count_.load(std::memory_order_relaxed);
  }

 private:
  struct FixKey {
    uint64_t tuple_packed = 0;
    uint32_t attribute = 0;
    int64_t value = 0;

    bool operator==(const FixKey& o) const {
      return tuple_packed == o.tuple_packed && attribute == o.attribute &&
             value == o.value;
    }
  };
  struct FixKeyHash {
    size_t operator()(const FixKey& k) const {
      size_t h = k.tuple_packed * 0x9e3779b97f4a7c15ULL;
      h ^= (k.attribute + 0x9e3779b9U) + (h << 6) + (h >> 2);
      h ^= std::hash<int64_t>{}(k.value) + (h << 6) + (h >> 2);
      return h;
    }
  };

  RepairSession(const Database& db, std::vector<BoundConstraint> ics,
                const RepairOptions& options);

  // The Open() body: full build, cache adoption, initial solve + apply.
  Status Init();

  // Batch steps, factored for the span structure. All run under busy_.
  // Step 1: checks every row's relation name and arity, then appends each
  // relation's rows, in batch order, with one Table::AppendRows call, which
  // checks types and key uniqueness. All or nothing: when a relation fails,
  // the relations appended before it are truncated back to
  // `first_new_row`. On success `appended_relations` lists, ascending, the
  // relations that gained rows.
  Status AppendBatch(const std::vector<BatchRow>& rows,
                     const std::vector<uint32_t>& first_new_row,
                     std::vector<uint32_t>* appended_relations);
  Status PatchInstance(std::vector<ViolationSet> new_violations,
                       std::vector<CandidateFix> new_fixes, BatchStats* stats);

  // Applies the chosen sets of `solution` to db_ (same subsumption rule as
  // ApplyCover: of two picks on one (tuple, attribute), the higher-weight
  // fix wins), recording which rows of which relations changed and the
  // update list itself. Then tells the engine which cells changed: it
  // patches them into its snapshot and drops the join indexes keyed on
  // their columns (by locality (a), none in practice).
  Status ApplyChosen(const SetCoverSolution& solution,
                     std::vector<std::vector<uint32_t>>* updated_rows,
                     std::vector<AppliedUpdate>* applied);

  // Adds the tuples of `sets` to the inconsistent-tuple census.
  void AddToCensus(const std::vector<ViolationSet>& sets);

  const RepairOptions options_;
  const DistanceFunction distance_;
  const size_t num_threads_;

  Database db_;  // the session's consistent clone; rows append, cells move
  const std::vector<BoundConstraint> bound_;

  // The build's engine, kept for the session's life; holds &db_ and
  // &bound_, and owns the snapshot it scans.
  std::unique_ptr<ViolationEngine> engine_;

  std::vector<ViolationSet> violations_;  // element ids are indices here
  // Set ids are indices here. Only the cell, value and weight of each fix
  // are kept: its solved violation ids live in csr_.
  std::vector<CandidateFix> fixes_;
  std::unordered_map<FixKey, uint32_t, FixKeyHash> fix_ids_;
  CsrSetCoverInstance csr_;         // frozen view; one AppendEpoch per batch
  ComponentIndex components_;       // live index; follows each epoch
  // Published copy of components_.num_components() for lock-free STATS
  // reads; stored after Open and after each completed batch.
  std::atomic<size_t> component_count_{0};
  std::unique_ptr<IncrementalGreedySolver> solver_;  // reads csr_

  // Records one completed batch into the rolling window, the latency
  // histograms (session.batch.*_us), and the event collector's counter
  // tracks (session.distance / session.cover_weight time series).
  void RecordBatchTelemetry(uint64_t batch_id, const BatchStats& batch);

  SessionStats stats_;
  std::deque<BatchTelemetry> telemetry_;
  std::vector<AppliedUpdate> open_updates_;
  // First-touch original value of every cell a repair has updated, keyed on
  // (tuple.Packed(), attribute): lets cumulative_distance_ stay exact when a
  // later batch moves an already-repaired cell further.
  std::map<std::pair<uint64_t, uint32_t>, int64_t> original_values_;
  double cumulative_distance_ = 0.0;
  // Normalized measure after the previous batch, for the per-batch delta in
  // the telemetry window.
  double last_inconsistency_ = 0.0;
  // The inconsistent-tuple census: per relation, one byte per row (grown
  // on demand) marking the tuples in some violation set, and their count.
  std::vector<std::vector<uint8_t>> in_violation_;
  size_t inconsistent_tuples_ = 0;

  std::atomic<bool> busy_{false};
  bool poisoned_ = false;
};

}  // namespace dbrepair

#endif  // DBREPAIR_REPAIR_SESSION_H_
