#ifndef DBREPAIR_REPAIR_SETCOVER_COMPONENTS_H_
#define DBREPAIR_REPAIR_SETCOVER_COMPONENTS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "repair/setcover/instance.h"

namespace dbrepair {

/// Connected components of the element-set incidence graph (the conflict
/// hypergraph of the paper's locality argument): two sets are connected iff
/// they share an element, an element belongs to the component of the sets
/// covering it. Repairs of distinct components are fully independent; the
/// count measures how finely the locality property decomposes an instance.
/// The solve itself stays one pass over the whole instance (DESIGN.md
/// "Conflict components"): the index serves telemetry — the
/// repair.components gauge, a session's per-batch components touched and
/// merged, dbrepaird's tenant_components.
///
/// Implementation: union-find over *set* ids. Each element remembers one
/// covering set (`owner`); absorbing a set unions it with the owners of its
/// elements, which is exactly one pass over the sets the build phase just
/// assembled. Repair sessions keep the index alive across
/// batches: AddElements/AddSet/ExtendSet follow each epoch's new elements,
/// new sets and extended sets one to one, and a batch whose fix touches
/// violations of two previously separate components merges them (the count
/// of merges is reported for telemetry).
///
/// The index never renumbers: dense, deterministic component labels are
/// produced on demand by Partition(), ordered by each component's smallest
/// element id — a pure function of the instance, independent of union
/// order and thread count.
class ComponentIndex {
 public:
  ComponentIndex() = default;

  /// Builds the index of a build record (one Absorb per set).
  static ComponentIndex Build(const SetCoverInstance& instance);

  /// Grows the element universe by `count` fresh, uncovered ids. Uncovered
  /// elements are not counted as components until a set covers them (they
  /// are transient mid-patch state; a valid instance has none).
  void AddElements(size_t count);

  /// Registers the next set id (== num_sets()) covering `elements` and
  /// unions it with their components. Returns the number of union
  /// operations performed — each joins two previously distinct components
  /// (one of which may be the set's own fresh component), so the live
  /// component count drops by exactly the returned value minus any newly
  /// attached component the set itself contributed.
  size_t AddSet(std::span<const uint32_t> elements);

  /// Absorbs elements appended to an existing set (the session's
  /// shared-fix-key path). Returns the number of union operations, as
  /// AddSet does.
  size_t ExtendSet(uint32_t set_id, std::span<const uint32_t> new_elements);

  size_t num_sets() const { return parent_.size(); }
  size_t num_elements() const { return owner_.size(); }

  /// Number of components holding at least one element. Maintained live:
  /// O(1) to read at any point of a session.
  size_t num_components() const { return num_components_; }

  /// Representative set id of `set_id`'s component (path-compressing).
  uint32_t Find(uint32_t set_id) const;

  /// How many distinct components the given elements touch (session
  /// telemetry: the components a batch's delta was routed to). Uncovered
  /// elements count one component each.
  size_t CountDistinctComponents(std::span<const uint32_t> elements) const;

  /// Dense, deterministic labelling (see ComponentPartition).
  struct Partitioned;
  Partitioned Partition() const;

 private:
  size_t Absorb(uint32_t set_id, std::span<const uint32_t> elements);

  static constexpr uint32_t kNone = UINT32_MAX;

  mutable std::vector<uint32_t> parent_;  // union-find over set ids
  std::vector<uint32_t> size_;            // union by size (root entries)
  std::vector<uint8_t> attached_;         // root owns >= 1 element
  std::vector<uint32_t> owner_;           // element -> a covering set
  size_t num_components_ = 0;
};

/// The dense per-component view of an instance. Component ids are assigned
/// in ascending order of the component's smallest element id; within a
/// component, sets and elements keep their global ascending order, so the
/// local ids are order-preserving renumberings.
///
/// Sets covering no element (impossible after a build, possible only for a
/// degenerate hand-made instance) belong to no component: their
/// `set_local` entry is kNone and no component lists them. An element
/// covered by no set becomes a singleton component with no sets.
struct ComponentIndex::Partitioned {
  static constexpr uint32_t kNone = UINT32_MAX;

  /// Per component: its global set ids, ascending.
  std::vector<std::vector<uint32_t>> sets;
  /// Per component: its global element ids, ascending.
  std::vector<std::vector<uint32_t>> elements;
  /// Global set id -> local id within its component (kNone for empty sets).
  std::vector<uint32_t> set_local;
  /// Global element id -> local id within its component.
  std::vector<uint32_t> elem_local;
  /// Global element id -> dense component id.
  std::vector<uint32_t> elem_component;

  size_t num_components() const { return elements.size(); }
};

using ComponentPartition = ComponentIndex::Partitioned;

}  // namespace dbrepair

#endif  // DBREPAIR_REPAIR_SETCOVER_COMPONENTS_H_
