#ifndef DBREPAIR_REPAIR_DISTANCE_H_
#define DBREPAIR_REPAIR_DISTANCE_H_

#include <cstdint>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "storage/database.h"
#include "storage/tuple.h"

namespace dbrepair {

/// The scalar distance Dist used inside the Delta-distance (Definition 2.1).
/// Any function monotone in |a - b| keeps the paper's results valid; the two
/// the paper names are provided.
enum class DistanceKind {
  kL1,  ///< "city distance": |a - b|
  kL2,  ///< "euclidean distance": (a - b)^2
};

/// One cell a repair changed: tuple t's flexible attribute went from
/// `old_value` (0 for a NULL cell, as fix generation reads it) to
/// `new_value`. ApplyCover and repair sessions emit these.
struct AppliedUpdate {
  TupleRef tuple;
  uint32_t attribute = 0;
  int64_t old_value = 0;
  int64_t new_value = 0;
};

/// Weighted distance between values, tuples, and database instances.
class DistanceFunction {
 public:
  explicit DistanceFunction(DistanceKind kind = DistanceKind::kL1)
      : kind_(kind) {}

  DistanceKind kind() const { return kind_; }

  /// Dist(a, b): |a-b| for L1, (a-b)^2 for L2.
  double ScalarDistance(double a, double b) const {
    const double d = a > b ? a - b : b - a;
    return kind_ == DistanceKind::kL1 ? d : d * d;
  }

  /// Delta({t},{t'}): sum over flexible attributes of
  /// alpha_A * Dist(t.A, t'.A). Both tuples must belong to `schema`.
  double TupleDistance(const RelationSchema& schema, TupleView a,
                       TupleView b) const;

  /// Delta(D, D') per Definition 2.1: tuples are matched by primary key
  /// (repairs keep val(K_R) fixed), and flexible-attribute differences are
  /// accumulated. Errors if the instances have different schemas or key
  /// sets.
  Result<double> DatabaseDistance(const Database& d,
                                  const Database& d_prime) const;

  /// Delta(D, D') summed from the updates that turned D into D' instead of
  /// a scan over every row. `updates` must be in ascending (relation, row,
  /// attribute) order with one entry per changed cell, as ApplyCover emits
  /// them. Each tuple's terms are summed first, then the tuple sums in
  /// order — DatabaseDistance's grouping, with only its exact-zero terms
  /// skipped — so the result equals DatabaseDistance(D, D') bit for bit.
  double UpdatesDistance(const Schema& schema,
                         const std::vector<AppliedUpdate>& updates) const;

 private:
  DistanceKind kind_;
};

}  // namespace dbrepair

#endif  // DBREPAIR_REPAIR_DISTANCE_H_
