#include "repair/setcover/csr_instance.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "obs/context.h"

namespace dbrepair {

namespace {

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

// Checks that `elements` is strictly ascending and lies in the fresh id
// range [first, end) of the epoch.
bool FreshAscending(const std::vector<uint32_t>& elements, size_t first,
                    size_t end) {
  for (size_t i = 0; i < elements.size(); ++i) {
    if (elements[i] < first || elements[i] >= end) return false;
    if (i > 0 && elements[i] <= elements[i - 1]) return false;
  }
  return true;
}

}  // namespace

CsrSetCoverInstance CsrSetCoverInstance::Freeze(
    const SetCoverInstance& source) {
  const auto start = std::chrono::steady_clock::now();
  CsrSetCoverInstance csr;
  csr.num_elements_ = source.num_elements;
  csr.weights_ = source.weights;

  const size_t num_sets = source.sets.size();
  size_t nnz = 0;
  for (const std::vector<uint32_t>& set : source.sets) nnz += set.size();

  // ---- Set -> element spans: one contiguous fill in set-id order. ----
  csr.set_begin_.resize(num_sets);
  csr.set_size_.resize(num_sets);
  csr.set_arena_.reserve(nnz);
  for (uint32_t s = 0; s < num_sets; ++s) {
    csr.set_begin_[s] = static_cast<uint32_t>(csr.set_arena_.size());
    csr.set_size_[s] = static_cast<uint32_t>(source.sets[s].size());
    csr.set_arena_.insert(csr.set_arena_.end(), source.sets[s].begin(),
                          source.sets[s].end());
  }

  // ---- Element -> set cross links: two-pass counting fill. ----
  // Pass 1 counts each element's frequency; the prefix sum becomes the
  // offsets array. Pass 2 scatters set ids through a cursor copy; iterating
  // sets in ascending id order leaves every link list ascending.
  std::vector<uint32_t> counts(source.num_elements, 0);
  for (const std::vector<uint32_t>& set : source.sets) {
    for (const uint32_t e : set) ++counts[e];
  }
  csr.elem_offsets_.assign(source.num_elements + 1, 0);
  size_t max_frequency = 0;
  for (size_t e = 0; e < source.num_elements; ++e) {
    csr.elem_offsets_[e + 1] = csr.elem_offsets_[e] + counts[e];
    max_frequency = std::max<size_t>(max_frequency, counts[e]);
  }
  csr.max_frequency_ = max_frequency;
  csr.elem_arena_.resize(nnz);
  std::vector<uint32_t> cursor(csr.elem_offsets_.begin(),
                               csr.elem_offsets_.end() - 1);
  for (uint32_t s = 0; s < num_sets; ++s) {
    for (const uint32_t e : source.sets[s]) {
      csr.elem_arena_[cursor[e]++] = s;
    }
  }

  obs::ObsContext& obs = obs::CurrentObs();
  obs.events.RecordInstant("csr.freeze",
                           static_cast<double>(ElapsedNs(start)) * 1e-9);
  obs::MetricsRegistry& metrics = obs.metrics;
  metrics.GetCounter("solve.csr.freezes")->Add(1);
  metrics.GetCounter("solve.csr.freeze_ns")->Add(ElapsedNs(start));
  metrics.GetGauge("solve.csr.arena_bytes")
      ->Set(static_cast<double>(csr.arena_bytes()));
  metrics.GetGauge("solve.csr.max_frequency")
      ->Set(static_cast<double>(max_frequency));
  const double cells =
      static_cast<double>(source.num_elements) * static_cast<double>(num_sets);
  metrics.GetGauge("solve.csr.density")
      ->Set(cells > 0.0 ? static_cast<double>(nnz) / cells : 0.0);
  return csr;
}

size_t CsrSetCoverInstance::arena_bytes() const {
  return (set_arena_.size() + elem_arena_.size() + set_begin_.size() +
          set_size_.size() + elem_offsets_.size()) *
             sizeof(uint32_t) +
         weights_.size() * sizeof(double);
}

Status CsrSetCoverInstance::AppendEpoch(const CsrEpochDelta& delta) {
  const auto start = std::chrono::steady_clock::now();
  const size_t old_elements = num_elements_;
  const size_t new_universe = old_elements + delta.new_elements;
  const auto old_sets = static_cast<uint32_t>(weights_.size());

  // ---- Check the whole delta before the first arena write, so a rejected
  // delta leaves the view exactly as it was. A delta may link only the
  // epoch's fresh elements: a pre-epoch element's link list cannot grow
  // without rewriting the cross-link arena. ----
  // Extensions in ascending set-id order: the order the counting fill below
  // must scatter them in to keep every link list ascending.
  std::vector<uint32_t> by_set(delta.extended.size());
  for (uint32_t i = 0; i < by_set.size(); ++i) by_set[i] = i;
  std::sort(by_set.begin(), by_set.end(), [&](uint32_t a, uint32_t b) {
    return delta.extended[a].set_id < delta.extended[b].set_id;
  });
  for (size_t k = 0; k < by_set.size(); ++k) {
    const CsrEpochDelta::Extension& ext = delta.extended[by_set[k]];
    if (ext.set_id >= old_sets) {
      return Status::Internal("csr epoch append: extension of a set the "
                              "frozen view has never seen");
    }
    if (k > 0 && delta.extended[by_set[k - 1]].set_id == ext.set_id) {
      return Status::Internal("csr epoch append: set " +
                              std::to_string(ext.set_id) +
                              " is extended twice in one epoch");
    }
    if (ext.elements.empty() ||
        !FreshAscending(ext.elements, old_elements, new_universe)) {
      return Status::Internal(
          "csr epoch append: extension of set " + std::to_string(ext.set_id) +
          " is not an ascending run of fresh elements (the cross-link arena "
          "would go stale)");
    }
  }
  for (const CsrEpochDelta::NewSet& set : delta.added) {
    if (!FreshAscending(set.elements, old_elements, new_universe)) {
      return Status::Internal(
          "csr epoch append: appended set is not an ascending run of fresh "
          "elements (the cross-link arena would go stale)");
    }
  }

  // ---- Element -> set arena: pure append. The fresh elements' link lists
  // are filled by counting, scattering extended sets (ascending ids, all
  // pre-epoch) before appended sets (ascending ids after them), so every
  // list is ascending exactly as Freeze() would lay it out. ----
  std::vector<uint32_t> counts(delta.new_elements, 0);
  for (const CsrEpochDelta::Extension& ext : delta.extended) {
    for (const uint32_t e : ext.elements) ++counts[e - old_elements];
  }
  for (const CsrEpochDelta::NewSet& set : delta.added) {
    for (const uint32_t e : set.elements) ++counts[e - old_elements];
  }
  elem_offsets_.reserve(new_universe + 1);
  for (const uint32_t count : counts) {
    elem_offsets_.push_back(elem_offsets_.back() + count);
    max_frequency_ = std::max<size_t>(max_frequency_, count);
  }
  std::vector<uint32_t> cursor(elem_offsets_.begin() + old_elements,
                               elem_offsets_.end() - 1);
  elem_arena_.resize(elem_offsets_.back());
  for (const uint32_t i : by_set) {
    const CsrEpochDelta::Extension& ext = delta.extended[i];
    for (const uint32_t e : ext.elements) {
      elem_arena_[cursor[e - old_elements]++] = ext.set_id;
    }
  }
  for (uint32_t i = 0; i < delta.added.size(); ++i) {
    for (const uint32_t e : delta.added[i].elements) {
      elem_arena_[cursor[e - old_elements]++] = old_sets + i;
    }
  }
  num_elements_ = new_universe;

  // ---- Extended pre-epoch sets: relocate the grown span to the tail. The
  // old span becomes dead slack; the set id (and thus every cross link)
  // is untouched. ----
  for (const CsrEpochDelta::Extension& ext : delta.extended) {
    const uint32_t old_begin = set_begin_[ext.set_id];
    const uint32_t old_size = set_size_[ext.set_id];
    const auto begin = static_cast<uint32_t>(set_arena_.size());
    set_arena_.resize(begin + old_size + ext.elements.size());
    std::copy_n(set_arena_.begin() + old_begin, old_size,
                set_arena_.begin() + begin);
    std::copy(ext.elements.begin(), ext.elements.end(),
              set_arena_.begin() + begin + old_size);
    dead_slots_ += old_size;
    set_begin_[ext.set_id] = begin;
    set_size_[ext.set_id] =
        old_size + static_cast<uint32_t>(ext.elements.size());
    if (ext.weight.has_value()) weights_[ext.set_id] = *ext.weight;
  }

  // ---- Appended sets extend the tail of the span arena. ----
  for (const CsrEpochDelta::NewSet& set : delta.added) {
    set_begin_.push_back(static_cast<uint32_t>(set_arena_.size()));
    set_size_.push_back(static_cast<uint32_t>(set.elements.size()));
    set_arena_.insert(set_arena_.end(), set.elements.begin(),
                      set.elements.end());
    weights_.push_back(set.weight);
  }

  // Long sessions with many relocations accumulate dead slack; compact
  // once it dominates so the arena stays within 2x of its live size.
  if (dead_slots_ > set_arena_.size() / 2) CompactSetArena();

  obs::ObsContext& obs = obs::CurrentObs();
  obs.events.RecordInstant("csr.epoch_append",
                           static_cast<double>(ElapsedNs(start)) * 1e-9);
  obs.events.RecordCounter("csr.arena_bytes",
                           static_cast<double>(arena_bytes()));
  obs.events.RecordCounter("csr.dead_slots",
                           static_cast<double>(dead_slots_));
  obs::MetricsRegistry& metrics = obs.metrics;
  metrics.GetCounter("solve.csr.epoch_appends")->Add(1);
  metrics.GetCounter("solve.csr.epoch_append_ns")->Add(ElapsedNs(start));
  metrics.GetCounter("solve.csr.relocated_sets")->Add(delta.extended.size());
  metrics.GetGauge("solve.csr.arena_bytes")
      ->Set(static_cast<double>(arena_bytes()));
  metrics.GetGauge("solve.csr.max_frequency")
      ->Set(static_cast<double>(max_frequency_));
  metrics.GetGauge("solve.csr.dead_slots")
      ->Set(static_cast<double>(dead_slots_));
  return Status::OK();
}

void CsrSetCoverInstance::CompactSetArena() {
  std::vector<uint32_t> compact;
  compact.reserve(set_arena_.size() - dead_slots_);
  for (uint32_t s = 0; s < set_begin_.size(); ++s) {
    const auto begin = static_cast<uint32_t>(compact.size());
    compact.insert(compact.end(), set_arena_.begin() + set_begin_[s],
                   set_arena_.begin() + set_begin_[s] + set_size_[s]);
    set_begin_[s] = begin;
  }
  set_arena_ = std::move(compact);
  dead_slots_ = 0;
  obs::CurrentObs().metrics.GetCounter("solve.csr.compactions")->Add(1);
}

Status CsrSetCoverInstance::Validate() const {
  if (set_begin_.size() != weights_.size() ||
      set_size_.size() != weights_.size()) {
    return Status::Internal("csr instance: set arrays disagree on |S|");
  }
  if (elem_offsets_.size() != num_elements_ + 1 || elem_offsets_[0] != 0 ||
      elem_offsets_.back() != elem_arena_.size()) {
    return Status::Internal("csr instance: element offsets malformed");
  }
  size_t live = 0;
  for (uint32_t s = 0; s < weights_.size(); ++s) {
    if (weights_[s] < 0.0) {
      return Status::Internal("csr instance: negative weight at set " +
                              std::to_string(s));
    }
    if (static_cast<size_t>(set_begin_[s]) + set_size_[s] >
        set_arena_.size()) {
      return Status::Internal("csr instance: span of set " +
                              std::to_string(s) + " overruns the arena");
    }
    live += set_size_[s];
    const std::span<const uint32_t> elems = elements_of(s);
    for (size_t i = 0; i < elems.size(); ++i) {
      if (elems[i] >= num_elements_) {
        return Status::Internal(
            "csr instance: element id out of range in set " +
            std::to_string(s));
      }
      if (i > 0 && elems[i] <= elems[i - 1]) {
        return Status::Internal("csr instance: span of set " +
                                std::to_string(s) +
                                " is not strictly ascending");
      }
      // Cross-link check: e's ascending link list must contain s.
      const std::span<const uint32_t> links = sets_of(elems[i]);
      if (!std::binary_search(links.begin(), links.end(), s)) {
        return Status::Internal("csr instance: missing cross link from "
                                "element " + std::to_string(elems[i]) +
                                " to set " + std::to_string(s));
      }
    }
  }
  if (live + dead_slots_ != set_arena_.size()) {
    return Status::Internal("csr instance: dead-slot accounting is off");
  }
  if (live != elem_arena_.size()) {
    return Status::Internal(
        "csr instance: link arena size does not match the live span total");
  }
  for (uint32_t e = 0; e < num_elements_; ++e) {
    const std::span<const uint32_t> links = sets_of(e);
    if (links.empty()) {
      return Status::Internal("csr instance: element " + std::to_string(e) +
                              " is covered by no set (infeasible)");
    }
    for (size_t i = 0; i < links.size(); ++i) {
      if (links[i] >= weights_.size()) {
        return Status::Internal(
            "csr instance: set id out of range in links of element " +
            std::to_string(e));
      }
      if (i > 0 && links[i] <= links[i - 1]) {
        return Status::Internal("csr instance: links of element " +
                                std::to_string(e) +
                                " are not strictly ascending");
      }
    }
  }
  return Status::OK();
}

}  // namespace dbrepair
