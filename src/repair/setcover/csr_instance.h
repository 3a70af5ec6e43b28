#ifndef DBREPAIR_REPAIR_SETCOVER_CSR_INSTANCE_H_
#define DBREPAIR_REPAIR_SETCOVER_CSR_INSTANCE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/status.h"
#include "repair/setcover/instance.h"

namespace dbrepair {

/// One repair batch's delta against a frozen CSR instance: everything
/// CsrSetCoverInstance::AppendEpoch needs, carried in the delta itself.
/// The batch's fresh elements get ids [num_elements(), num_elements() +
/// new_elements), and every element id a delta links must be one of them.
struct CsrEpochDelta {
  /// Elements this batch appends to the universe.
  size_t new_elements = 0;

  struct NewSet {
    double weight = 0.0;
    std::vector<uint32_t> elements;  ///< sorted fresh element ids
  };
  /// Appended sets, in id order: the i-th gets id num_sets() + i.
  std::vector<NewSet> added;

  struct Extension {
    uint32_t set_id = 0;             ///< pre-epoch set that gained elements
    std::vector<uint32_t> elements;  ///< sorted fresh ids appended to it
    std::optional<double> weight;    ///< its refreshed weight, if changed
  };
  /// Pre-epoch sets that gained elements (each at most once per batch —
  /// candidate fixes are deduplicated on their key before patching).
  std::vector<Extension> extended;
};

/// The frozen, cache-friendly view of a MWSCP instance: both incidence
/// directions live in flat uint32 arenas instead of nested vectors, so the
/// solver hot loops stream contiguous spans instead of pointer-chasing one
/// heap allocation per set and per element-link list.
///
/// Layout (all indices 0-based):
///
///   set_arena_   [ S0 elements | S1 elements | ... ]   set -> element ids
///   set_begin_   per set: offset of its span into set_arena_
///   set_size_    per set: span length (|S_i|)
///   weights_     per set: w(S_i), bit-identical to the source
///   elem_arena_  [ e0 links | e1 links | ... ]         element -> set ids
///   elem_offsets_ num_elements+1 offsets into elem_arena_ (classic CSR)
///
/// Freeze() builds both arenas from the build record: one pass over its
/// sets plus a two-pass counting fill for the cross links, so element link
/// lists come out in ascending set-id order.
///
/// Repair sessions grow the view per batch with AppendEpoch(): element ids
/// are allocated globally ascending and a batch's fixes only ever reference
/// that batch's fresh violation ids, so the element->set arena extends
/// purely by appending the new elements' lists. In the set->element arena,
/// appended sets extend the tail and a grown pre-epoch set relocates its
/// whole span to the tail (the old span becomes dead slack, compacted once
/// it exceeds half the arena). Set ids never move, so relocation is
/// invisible to the solvers.
class CsrSetCoverInstance {
 public:
  CsrSetCoverInstance() = default;

  /// Freezes `source` into flat arenas. Does not require element links;
  /// the cross-link arena is rebuilt with a counting fill. Records the
  /// solve.csr.* metrics (arena bytes, max frequency, density, freeze
  /// time) on the current ObsContext.
  static CsrSetCoverInstance Freeze(const SetCoverInstance& source);

  size_t num_elements() const { return num_elements_; }
  size_t num_sets() const { return weights_.size(); }
  double weight(uint32_t s) const { return weights_[s]; }
  uint32_t set_size(uint32_t s) const { return set_size_[s]; }

  /// The sorted element ids of set `s` (contiguous arena span).
  std::span<const uint32_t> elements_of(uint32_t s) const {
    return {set_arena_.data() + set_begin_[s], set_size_[s]};
  }

  /// The ascending set ids covering element `e` (contiguous arena span).
  std::span<const uint32_t> sets_of(uint32_t e) const {
    return {elem_arena_.data() + elem_offsets_[e],
            elem_offsets_[e + 1] - elem_offsets_[e]};
  }

  /// Largest number of sets any element occurs in (the layer algorithm's
  /// approximation factor f); maintained by Freeze() and AppendEpoch().
  size_t max_frequency() const { return max_frequency_; }

  /// Total bytes held by the two id arenas plus offsets and weights.
  size_t arena_bytes() const;

  /// Arena slots orphaned by relocated (extended) set spans.
  size_t dead_slots() const { return dead_slots_; }

  /// Appends one batch's delta. The whole delta is checked before any
  /// arena changes: it may only link fresh elements (the session
  /// invariant), extend each pre-epoch set at most once, and list every
  /// span strictly ascending. A rejected delta returns Internal and leaves
  /// the view untouched.
  Status AppendEpoch(const CsrEpochDelta& delta);

  /// Structural self-checks: offsets monotone and in range, spans sorted
  /// and duplicate-free, cross links consistent in both directions,
  /// weights non-negative, every element covered (feasibility).
  Status Validate() const;

 private:
  // Rebuilds set_arena_ in set-id order, dropping dead slack.
  void CompactSetArena();

  size_t num_elements_ = 0;
  std::vector<double> weights_;
  std::vector<uint32_t> set_begin_;
  std::vector<uint32_t> set_size_;
  std::vector<uint32_t> set_arena_;
  std::vector<uint32_t> elem_offsets_{0};
  std::vector<uint32_t> elem_arena_;
  size_t max_frequency_ = 0;
  size_t dead_slots_ = 0;
};

}  // namespace dbrepair

#endif  // DBREPAIR_REPAIR_SETCOVER_CSR_INSTANCE_H_
