#ifndef DBREPAIR_CONSTRAINTS_VIOLATION_H_
#define DBREPAIR_CONSTRAINTS_VIOLATION_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "storage/database.h"
#include "storage/tuple.h"

namespace dbrepair {

/// A violation set (Definition 2.4): a minimal set of tuples that jointly
/// violate one constraint. `tuples` is sorted and duplicate-free, so equal
/// sets compare equal structurally.
struct ViolationSet {
  uint32_t ic_index = 0;
  std::vector<TupleRef> tuples;

  bool operator==(const ViolationSet& other) const {
    return ic_index == other.ic_index && tuples == other.tuples;
  }

  bool Contains(TupleRef ref) const;

  /// "ic2: {R0[3], R1[7]}" (relation/row indices) for diagnostics.
  std::string ToString() const;
};

struct ViolationSetHash {
  size_t operator()(const ViolationSet& v) const {
    size_t h = v.ic_index * 0x9e3779b97f4a7c15ULL;
    for (const TupleRef& t : v.tuples) {
      h = h * 1099511628211ULL + TupleRefHash{}(t);
    }
    return h;
  }
};

/// Degrees of inconsistency (Definition 2.4): how many violation sets each
/// tuple belongs to, and the database-level maximum.
struct DegreeInfo {
  /// (tuple, degree) for every tuple in some violation set, sorted by tuple.
  std::vector<std::pair<TupleRef, uint32_t>> per_tuple;
  uint32_t max_degree = 0;

  /// Deg(t, IC); 0 for a tuple in no violation set.
  uint32_t Degree(TupleRef t) const;
};

/// Computes Deg(t, IC) for every tuple occurring in `violations` and
/// Deg(D, IC) as their maximum.
DegreeInfo ComputeDegrees(const std::vector<ViolationSet>& violations);

}  // namespace dbrepair

#endif  // DBREPAIR_CONSTRAINTS_VIOLATION_H_
