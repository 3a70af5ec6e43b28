#include "repair/setcover/components.h"

#include <utility>

namespace dbrepair {

ComponentIndex ComponentIndex::Build(const SetCoverInstance& instance) {
  ComponentIndex index;
  index.owner_.assign(instance.num_elements, kNone);
  index.parent_.reserve(instance.sets.size());
  index.size_.reserve(instance.sets.size());
  index.attached_.reserve(instance.sets.size());
  for (const std::vector<uint32_t>& set : instance.sets) {
    index.AddSet(set);
  }
  return index;
}

void ComponentIndex::AddElements(size_t count) {
  owner_.resize(owner_.size() + count, kNone);
}

size_t ComponentIndex::AddSet(std::span<const uint32_t> elements) {
  const auto id = static_cast<uint32_t>(parent_.size());
  parent_.push_back(id);
  size_.push_back(1);
  attached_.push_back(0);
  return Absorb(id, elements);
}

size_t ComponentIndex::ExtendSet(uint32_t set_id,
                                 std::span<const uint32_t> new_elements) {
  return Absorb(set_id, new_elements);
}

uint32_t ComponentIndex::Find(uint32_t set_id) const {
  uint32_t root = set_id;
  while (parent_[root] != root) root = parent_[root];
  while (parent_[set_id] != root) {
    const uint32_t next = parent_[set_id];
    parent_[set_id] = root;
    set_id = next;
  }
  return root;
}

size_t ComponentIndex::Absorb(uint32_t set_id,
                              std::span<const uint32_t> elements) {
  if (elements.empty()) return 0;
  size_t merges = 0;
  {
    const uint32_t root = Find(set_id);
    if (!attached_[root]) {
      attached_[root] = 1;
      ++num_components_;
    }
  }
  for (const uint32_t e : elements) {
    if (owner_[e] == kNone) {
      owner_[e] = set_id;
      continue;
    }
    uint32_t a = Find(set_id);
    uint32_t b = Find(owner_[e]);
    if (a == b) continue;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    attached_[a] |= attached_[b];
    --num_components_;  // both roots owned elements (b owns e, a owns one)
    ++merges;
  }
  return merges;
}

size_t ComponentIndex::CountDistinctComponents(
    std::span<const uint32_t> elements) const {
  size_t count = 0;
  std::vector<uint32_t> roots;
  roots.reserve(elements.size());
  for (const uint32_t e : elements) {
    if (owner_[e] == kNone) {
      ++count;  // uncovered: its own (degenerate) component
      continue;
    }
    const uint32_t root = Find(owner_[e]);
    bool seen = false;
    for (const uint32_t r : roots) {
      if (r == root) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      roots.push_back(root);
      ++count;
    }
  }
  return count;
}

ComponentIndex::Partitioned ComponentIndex::Partition() const {
  Partitioned part;
  part.set_local.assign(parent_.size(), Partitioned::kNone);
  part.elem_local.resize(owner_.size());
  part.elem_component.resize(owner_.size());

  // Dense component ids in ascending smallest-element order: scan elements
  // in id order and label each unseen root on first sight. Independent of
  // union order, so any mutation history of the same instance partitions
  // identically.
  std::vector<uint32_t> component_of_root(parent_.size(), Partitioned::kNone);
  for (uint32_t e = 0; e < owner_.size(); ++e) {
    uint32_t comp;
    if (owner_[e] == kNone) {
      // Uncovered element: a singleton component with no sets.
      comp = static_cast<uint32_t>(part.elements.size());
      part.elements.emplace_back();
      part.sets.emplace_back();
    } else {
      const uint32_t root = Find(owner_[e]);
      comp = component_of_root[root];
      if (comp == Partitioned::kNone) {
        comp = static_cast<uint32_t>(part.elements.size());
        component_of_root[root] = comp;
        part.elements.emplace_back();
        part.sets.emplace_back();
      }
    }
    part.elem_component[e] = comp;
    part.elem_local[e] = static_cast<uint32_t>(part.elements[comp].size());
    part.elements[comp].push_back(e);
  }
  for (uint32_t s = 0; s < parent_.size(); ++s) {
    const uint32_t comp = component_of_root[Find(s)];
    if (comp == Partitioned::kNone) continue;  // empty set: no component
    part.set_local[s] = static_cast<uint32_t>(part.sets[comp].size());
    part.sets[comp].push_back(s);
  }
  return part;
}

}  // namespace dbrepair
