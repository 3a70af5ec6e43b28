#include "constraints/violation.h"

#include <algorithm>

namespace dbrepair {

bool ViolationSet::Contains(TupleRef ref) const {
  return std::binary_search(tuples.begin(), tuples.end(), ref);
}

std::string ViolationSet::ToString() const {
  std::string out = "ic" + std::to_string(ic_index + 1) + ": {";
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (i > 0) out += ", ";
    out += "R" + std::to_string(tuples[i].relation) + "[" +
           std::to_string(tuples[i].row) + "]";
  }
  out += "}";
  return out;
}

uint32_t DegreeInfo::Degree(TupleRef t) const {
  const auto it = std::lower_bound(
      per_tuple.begin(), per_tuple.end(), t,
      [](const std::pair<TupleRef, uint32_t>& e, TupleRef x) {
        return e.first < x;
      });
  return it != per_tuple.end() && it->first == t ? it->second : 0;
}

DegreeInfo ComputeDegrees(const std::vector<ViolationSet>& violations) {
  // Sort every occurrence by tuple, then count the runs.
  size_t total = 0;
  for (const ViolationSet& v : violations) total += v.tuples.size();
  std::vector<uint64_t> occurrences;
  occurrences.reserve(total);
  for (const ViolationSet& v : violations) {
    for (const TupleRef& t : v.tuples) occurrences.push_back(t.Packed());
  }
  std::sort(occurrences.begin(), occurrences.end());
  DegreeInfo info;
  for (size_t i = 0; i < occurrences.size();) {
    size_t end = i + 1;
    while (end < occurrences.size() && occurrences[end] == occurrences[i]) {
      ++end;
    }
    const uint32_t deg = static_cast<uint32_t>(end - i);
    info.per_tuple.emplace_back(
        TupleRef{static_cast<uint32_t>(occurrences[i] >> 32),
                 static_cast<uint32_t>(occurrences[i])},
        deg);
    info.max_degree = std::max(info.max_degree, deg);
    i = end;
  }
  return info;
}

}  // namespace dbrepair
