#ifndef DBREPAIR_REPAIR_SETCOVER_INCREMENTAL_H_
#define DBREPAIR_REPAIR_SETCOVER_INCREMENTAL_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "repair/setcover/csr_instance.h"
#include "repair/setcover/indexed_heap.h"

namespace dbrepair {

/// Modified greedy (Algorithm 5), the one implementation of its loop, with
/// solver state that persists between solves. ModifiedGreedySetCover is a
/// fresh solver's single SolveDelta(). Repair sessions keep one solver and
/// patch its instance instead of rebuilding it: the covered set, the
/// per-set uncovered counts, and the effective-weight priority queue
/// survive between solves; a batch appends its delta to the frozen CSR
/// view with AppendEpoch and announces each change here, then SolveDelta()
/// continues the loop over whatever is currently uncovered.
///
/// The solver reads only the frozen CsrSetCoverInstance; its hot loop walks
/// the set and element spans. Every On* call therefore requires the
/// matching AppendEpoch to have already run (the session appends the
/// epoch, then replays the callbacks).
///
/// A new solver's first SolveDelta() picks exactly the sets GreedySetCover
/// (Algorithm 1) and LazyGreedySetCover pick, in the same order (same
/// effective weights, same smaller-id tie-break), on a fresh Freeze and on
/// an instance grown epoch by epoch alike. Later solves continue that loop
/// from the preserved state rather than restarting it. Every solve counts
/// as one `solver.modified-greedy.runs`.
///
/// The caller must uphold two session invariants the solver checks where it
/// cheaply can:
///  * already-chosen sets are never extended — a chosen fix was applied, so
///    its (tuple, attribute) cell already holds the target value and fix
///    generation cannot produce its key again;
///  * covered elements never become uncovered — repairs move cells
///    monotonically (locality), so a solved violation set stays solved.
class IncrementalGreedySolver {
 public:
  /// Snapshots solver state off the frozen `instance` with nothing covered
  /// yet. `instance` must outlive the solver and only ever change through
  /// AppendEpoch with the matching On* calls replayed afterwards.
  explicit IncrementalGreedySolver(const CsrSetCoverInstance* instance);

  /// `count` fresh, uncovered elements joined the universe.
  void OnElementsAdded(size_t count);

  /// Set `set_id` was appended. Its elements must all be uncovered (they
  /// are this batch's fresh violation ids).
  Status OnSetAdded(uint32_t set_id);

  /// Elements from `first_new_index` onwards in the set's element list were
  /// appended.
  /// Rejects extension of a chosen set (see class invariants).
  Status OnSetExtended(uint32_t set_id, size_t first_new_index);

  /// The set's weight changed: reprices the heap entry.
  Status OnWeightChanged(uint32_t set_id);

  /// Runs the modified-greedy loop until every element is covered, starting
  /// from the preserved state. Returns only this call's picks (in pick
  /// order) and their weight; Internal when uncovered elements remain but
  /// no set can cover them (infeasible patch).
  Result<SetCoverSolution> SolveDelta();

  bool IsChosen(uint32_t set_id) const { return chosen_[set_id] != 0; }
  bool IsCovered(uint32_t element) const { return covered_[element] != 0; }
  size_t num_uncovered() const { return remaining_; }

 private:
  // (Re)inserts or reprices `set_id` from its current weight and uncovered
  // count; removes it when no uncovered element is left.
  void Reprice(uint32_t set_id);

  const CsrSetCoverInstance* instance_;
  std::vector<uint8_t> covered_;          // per element
  std::vector<uint8_t> chosen_;           // per set
  std::vector<uint32_t> uncovered_count_; // per set
  IndexedHeap heap_;
  size_t remaining_ = 0;
};

}  // namespace dbrepair

#endif  // DBREPAIR_REPAIR_SETCOVER_INCREMENTAL_H_
