#ifndef DBREPAIR_CONSTRAINTS_VIOLATION_ENGINE_H_
#define DBREPAIR_CONSTRAINTS_VIOLATION_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "constraints/ast.h"
#include "constraints/violation.h"
#include "storage/column_view.h"
#include "storage/database.h"
#include "storage/statistics.h"

namespace dbrepair {

// A plan lowered onto a ColumnSnapshot; defined in violation_engine.cc.
struct ColumnarPlan;
// One constraint's enumerated tuple sets as flat sortable records; defined
// in violation_engine.cc.
struct SetBuffer;

struct ViolationEngineOptions {
  /// Safety cap on the number of deduplicated violation sets; exceeded
  /// enumeration returns ResourceExhausted instead of exhausting memory.
  size_t max_violation_sets = 100'000'000;
  /// Worker threads for FindViolations. 1 (the default) is the exact serial
  /// path; 0 means one per hardware thread. With N > 1 each constraint's
  /// driving-table scan is sharded across workers into per-shard record
  /// buffers that are concatenated and deduplicated by one sort, so the
  /// output — and every downstream violation id — is byte-identical to the
  /// serial run.
  size_t num_threads = 1;
  /// Optional columnar snapshot of the same database, which the engine
  /// copies at construction (the copy shares the column vectors); when
  /// null, the engine builds its own on first use. The scan evaluates every
  /// constraint against the snapshot's typed arrays and dictionary codes,
  /// with join indexes keyed on packed uint64 codes. A supplied snapshot
  /// must match the Database row for row: a relation count, row count or
  /// arity that disagrees fails every Find* call with FailedPrecondition.
  const ColumnSnapshot* columnar = nullptr;
};

/// Enumerates violation sets of linear denial constraints over a Database
/// (the role Algorithm 2 delegates to SQL views in the paper).
///
/// Each constraint body is a conjunctive query with comparison built-ins;
/// the engine evaluates it with a greedy join order, lazily-built hash
/// indexes on the join columns, and earliest-possible placement of the
/// built-in filters. Explicit `x = y` built-ins are merged into variable
/// equivalence classes so they join with indexes rather than as post-filters.
///
/// One executor serves every constraint, over a ColumnSnapshot. Each
/// variable class it compares reads either typed codes (all its columns are
/// clean and of one declared type) or the row store's Values (otherwise);
/// either way the semantics are Value's: joins, constant positions and
/// merged `x = y` compare with Value ==, every other built-in with
/// EvalCompare.
class ViolationEngine {
 public:
  /// Both `db` and `ics` must outlive the engine.
  ViolationEngine(const Database& db, const std::vector<BoundConstraint>& ics,
                  ViolationEngineOptions options = {});

  /// All minimal violation sets (Definition 2.4) of every constraint,
  /// deduplicated, with non-minimal supersets filtered out.
  Result<std::vector<ViolationSet>> FindViolations();

  /// Delta-join enumeration: the minimal violation sets involving at least
  /// one row listed in `dirty_rows[rel]`. Each list holds strictly
  /// ascending row ids of its relation; a list that is not, or a list count
  /// other than the relation count, fails with InvalidArgument. A repair
  /// session calls it twice per batch: to detect, with each relation's
  /// appended rows [first new row, size) (when the pre-batch instance was
  /// consistent these are ALL violation sets of the grown instance, found
  /// without re-joining the old rows against themselves), and to verify,
  /// with those rows plus the scattered older rows the applied fixes
  /// updated in place. Each constraint runs once per pivot atom with the
  /// standard delta-join partition: atoms before the pivot bind clean rows
  /// only, the pivot binds dirty rows only, later atoms bind anything, so
  /// no assignment is enumerated twice. Costs O(listed rows) beyond the
  /// joins: the engine keeps one membership byte per row of each relation,
  /// grows it with the table, and sets and clears only the listed entries.
  Result<std::vector<ViolationSet>> FindViolationsTouching(
      const std::vector<std::vector<uint32_t>>& dirty_rows);

  /// Tells a long-lived engine (a repair session) how the rows changed
  /// since its last Find* call: the relations that gained rows (tables only
  /// append, so a row-id suffix), and the cells updated in place. The one
  /// path that keeps the engine's snapshot current: ExtendAppended, then
  /// PatchCells, which copy a relation another snapshot shares (the
  /// caller's `columnar`) before changing it. Join code indexes keyed on an
  /// updated cell's column are dropped; every other cache is kept: indexes
  /// grow by the appended suffix on their next probe, and planner
  /// statistics are recomputed only once a relation has grown by
  /// 1/kStatsRegrowShare since they were taken (stale statistics change
  /// plans, never violation sets).
  void NoteRowChanges(const std::vector<uint32_t>& appended_relations,
                      const std::vector<CellRef>& updated_cells);

  /// Builds the engine's snapshot of db() unless it holds one (supplied or
  /// built before). The first Find* call does this itself; a caller calls
  /// it to time the build apart from the scan.
  void BuildSnapshot();
  bool has_snapshot() const { return has_snapshot_; }
  /// The snapshot the scans read; empty until one is supplied or built.
  const ColumnSnapshot& snapshot() const { return snapshot_; }

  const Database& db() const { return db_; }
  const std::vector<BoundConstraint>& ics() const { return ics_; }
  size_t num_threads() const { return options_.num_threads; }

  /// A join index folds its tail of appended rows into a full rebuild once
  /// the tail would hold more than 1/kTailFoldShare as many rows as the
  /// main table, so each appended row costs O(1) over time.
  static constexpr size_t kTailFoldShare = 8;
  /// Cached planner statistics of a relation are recomputed once it holds
  /// more than 1 + 1/kStatsRegrowShare times the rows they describe.
  static constexpr size_t kStatsRegrowShare = 8;

  /// True iff `db` satisfies every constraint (no violation set exists).
  static Result<bool> Satisfies(const Database& db,
                                const std::vector<BoundConstraint>& ics,
                                ViolationEngineOptions options = {});

  /// Whether the tuple collection satisfies `ic`, i.e. *no* assignment of
  /// the given tuples (relation index, tuple) to ic's atoms makes the body
  /// true. Tuples may be used for several atoms (set semantics). Repeated
  /// variables and constant positions compare with Value ==, built-ins with
  /// EvalCompare.
  static bool SetSatisfies(
      const BoundConstraint& ic,
      const std::vector<std::pair<uint32_t, TupleView>>& tuples);

  /// One cell read in place of the stored one: attribute `attribute` of
  /// `tuples[member]` reads as `*value`.
  struct CellOverride {
    size_t member = 0;
    uint32_t attribute = 0;
    const Value* value = nullptr;
  };
  /// Binding state SetSatisfies reuses across calls: one Value pointer per
  /// variable, and per atom depth a bitmask of the variables it bound.
  struct SatisfiesScratch {
    std::vector<const Value*> binding;
    std::vector<uint64_t> bound;
  };
  /// SetSatisfies with one overridden cell: the Algorithm-4 check
  /// "(I \ {t}) union {t'} |= ic" where the candidate fix t' differs from
  /// the stored t = tuples[override.member] in one attribute, without
  /// materialising t'. Allocation-free once `scratch` has grown to `ic`.
  static bool SetSatisfies(
      const BoundConstraint& ic,
      const std::vector<std::pair<uint32_t, TupleView>>& tuples,
      const CellOverride& override, SatisfiesScratch* scratch);

 private:
  friend struct ColumnarPlan;  // its steps hold CodeIndex pointers

  // Execution plan step for one atom in the chosen join order.
  struct AtomStep {
    uint32_t atom_index = 0;
    // Positions holding constants, checked against each candidate row.
    std::vector<uint32_t> const_positions;
    // Positions whose variable class is first bound by this step.
    std::vector<std::pair<uint32_t, int32_t>> bind_positions;  // (pos, class)
    // Positions whose variable class is already bound (join checks). The
    // subset bound by *earlier atoms* can be served by a hash index.
    std::vector<std::pair<uint32_t, int32_t>> join_positions;  // (pos, class)
    // Join positions usable as hash-index key (bound before this atom).
    std::vector<uint32_t> index_positions;
    std::vector<int32_t> index_classes;
    // Built-ins fully bound once this step binds its variables.
    std::vector<uint32_t> builtins;
  };

  // The logical plan: join order and per-step positions. PrepareColumnar
  // lowers it onto the snapshot's columns for ExecuteInto.
  struct Plan {
    const BoundConstraint* ic = nullptr;
    std::vector<AtomStep> steps;
    size_t num_classes = 0;
  };

  // Join index: packed 64-bit key codes -> row ids. A single typed key
  // column packs its injective KeyCode (`exact`); a Value-backed column
  // packs Value::Hash, and multi-column keys are hash-combined. Probes of
  // an inexact index verify the candidate rows column by column.
  //
  // Layout: one open-addressing table (power-of-2 capacity, linear probing,
  // `count == 0` marks an empty slot — every present key owns >= 1 row) whose
  // groups are (offset, count) spans into a single packed row-id array over
  // rows [0, rows.size()). Rows stay ascending within each group. Built in
  // two counting passes with zero per-key heap allocations.
  //
  // Rows appended after the build go to `tail`, one ascending list per key.
  // Every tail row is larger than every row of the main table, so a probe
  // yields the main span and then the tail span: the same rows, in the
  // same order, as a fresh Build over all rows.
  struct CodeIndex {
    struct Group {
      uint64_t key = 0;
      uint32_t offset = 0;
      uint32_t count = 0;
    };
    std::vector<Group> groups;
    std::vector<uint32_t> rows;
    uint64_t mask = 0;
    bool exact = false;
    uint32_t keys = 0;  // distinct keys of the main table
    std::unordered_map<uint64_t, std::vector<uint32_t>> tail;
    uint32_t tail_rows = 0;

    static uint64_t Slot(uint64_t key, uint64_t mask) {
      uint64_t h = key * 0x9e3779b97f4a7c15ULL;
      h ^= h >> 32;
      return h & mask;
    }

    // Rows [0, indexed_rows()) are indexed.
    size_t indexed_rows() const { return rows.size() + tail_rows; }

    // Two-pass counting build from one key code per row; empties the tail.
    // The slot table holds `max_keys` (at least the distinct codes) at load
    // <= 1/2.
    void Build(const std::vector<uint64_t>& codes, size_t max_keys);

    // Candidate rows for a key: the main table's span, then the tail's.
    struct Candidates {
      const uint32_t* main = nullptr;
      uint32_t main_count = 0;
      const uint32_t* tail = nullptr;
      uint32_t tail_count = 0;
    };
    Candidates Find(uint64_t key) const {
      Candidates c;
      for (uint64_t i = Slot(key, mask);; i = (i + 1) & mask) {
        const Group& g = groups[i];
        if (g.count == 0) break;
        if (g.key == key) {
          c.main = rows.data() + g.offset;
          c.main_count = g.count;
          break;
        }
      }
      if (!tail.empty()) {
        const auto it = tail.find(key);
        if (it != tail.end()) {
          c.tail = it->second.data();
          c.tail_count = static_cast<uint32_t>(it->second.size());
        }
      }
      return c;
    }
  };

  // `forced_first_atom` >= 0 pins that atom to the front of the join
  // order (used by the delta-join pivots so the batch scan leads).
  Plan BuildPlan(const BoundConstraint& ic, int forced_first_atom = -1);
  const TableStats& GetStats(uint32_t relation);

  // Builds snapshot_ on first use and checks it against db_ relation by
  // relation.
  Status PrepareSnapshot();

  // Lowers `plan` onto snapshot_: chooses each class's column kind (typed
  // codes or Values), resolves every comparison to its evaluator, and
  // builds every join index the steps probe, so ExecuteInto only reads.
  ColumnarPlan PrepareColumnar(const Plan& plan);
  // `key` holds the index's attribute positions, each with kValueKeyBit
  // set when that column is keyed on Value::Hash. A cached index is grown
  // by the rows appended since it was last read, or rebuilt in full when
  // its tail would pass 1/kTailFoldShare of the main table's rows.
  static constexpr uint32_t kValueKeyBit = 1u << 31;
  const CodeIndex& GetCodeIndex(uint32_t relation,
                                const std::vector<uint32_t>& key);

  // Per-atom row admission filter, used by the delta-join pivots and the
  // parallel scan shards. The [min_row, max_row) window serves the shards'
  // contiguous partitions; the optional membership bitmap serves dirty-row
  // sets; and `exact_rows` lets a driving-atom full scan walk a
  // precomputed row list instead of the whole table.
  struct AtomFilter {
    uint32_t min_row = 0;
    uint32_t max_row = UINT32_MAX;
    // When set (one byte per row), a row is admitted iff its entry is
    // non-zero — inverted by `exclude`. Composes with the window above.
    const std::vector<uint8_t>* member = nullptr;
    bool exclude = false;
    // When set, a full scan at this atom enumerates exactly these rows
    // (ascending) instead of the whole table. Candidates from hash/range
    // indexes ignore it and rely on Admits.
    const std::vector<uint32_t>* exact_rows = nullptr;

    bool Admits(uint32_t row) const {
      if (row < min_row || row >= max_row) return false;
      if (member != nullptr && ((*member)[row] != 0) == exclude) return false;
      return true;
    }
    bool Unrestricted() const {
      return min_row == 0 && max_row == UINT32_MAX && member == nullptr;
    }
  };
  // One filter per atom of the constraint; nullptr = unrestricted.
  using AtomFilters = std::vector<AtomFilter>;

  // Join-execution totals, accumulated locally (per call / per shard) and
  // flushed to the metrics registry by the entry points, so the hot loop
  // never touches an atomic and worker threads never resolve CurrentObs().
  struct ExecCounters {
    uint64_t rows_scanned = 0;
    uint64_t assignments_found = 0;

    void MergeFrom(const ExecCounters& other) {
      rows_scanned += other.rows_scanned;
      assignments_found += other.assignments_found;
    }
  };

  // Recursive join evaluation over the lowered plan; appends each
  // assignment's canonical tuple set to `sets`. Reads only `cplan`, the
  // snapshot and the row store, so shards of one plan may run concurrently.
  Status ExecuteInto(const Plan& plan, const ColumnarPlan& cplan,
                     const AtomFilters* filters, SetBuffer* sets,
                     ExecCounters* counters) const;

  // Parallel FindViolations body for one constraint: shards the driving
  // (first-in-join-order) atom's table scan across `num_threads` workers
  // into per-shard buffers, then concatenates and deduplicates them.
  Status ExecuteShardedInto(const Plan& plan, const ColumnarPlan& cplan,
                            size_t num_threads, SetBuffer* sets,
                            ExecCounters* counters);

  // Deduplicates `sets` (ResourceExhausted past max_violation_sets), then
  // appends its inclusion-minimal sets (Definition 2.4) to `out` in sorted
  // tuple order.
  Status EmitMinimal(uint32_t ic_index, SetBuffer* sets,
                     std::vector<ViolationSet>* out) const;

  // The body the Find* entry points share: per constraint, `run` fills a
  // fresh record buffer with the constraint's assignments and EmitMinimal
  // turns it into violation sets; then the output is sorted by (ic_index,
  // tuples) and the join counters are recorded.
  using RunConstraint =
      std::function<Status(const BoundConstraint&, SetBuffer*, ExecCounters*)>;
  Result<std::vector<ViolationSet>> Enumerate(const RunConstraint& run);

  const Database& db_;
  const std::vector<BoundConstraint>& ics_;
  ViolationEngineOptions options_;

  struct IndexKeyHash {
    size_t operator()(const std::pair<uint32_t, std::vector<uint32_t>>& k)
        const {
      size_t h = k.first * 0x9e3779b97f4a7c15ULL;
      for (uint32_t p : k.second) h = h * 31 + p;
      return h;
    }
  };
  // Node-based, so the CodeIndex pointers a lowered plan holds stay valid
  // while later plans add entries.
  std::unordered_map<std::pair<uint32_t, std::vector<uint32_t>>, CodeIndex,
                     IndexKeyHash>
      code_index_cache_;
  std::unordered_map<uint32_t, TableStats> stats_cache_;
  // The scan's input: a copy of options.columnar, or built by the first
  // BuildSnapshot. Only NoteRowChanges changes it afterwards.
  ColumnSnapshot snapshot_;
  bool has_snapshot_ = false;
  // Lazily created when FindViolations runs with > 1 effective threads;
  // reused across constraints and calls.
  std::unique_ptr<ThreadPool> pool_;
  // FindViolationsTouching's membership maps, one byte per row of each
  // relation: non-zero exactly for the rows of the call in progress, zero
  // between calls.
  std::vector<std::vector<uint8_t>> dirty_marks_;
};

}  // namespace dbrepair

#endif  // DBREPAIR_CONSTRAINTS_VIOLATION_ENGINE_H_
