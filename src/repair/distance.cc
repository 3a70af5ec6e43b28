#include "repair/distance.h"

namespace dbrepair {

double DistanceFunction::TupleDistance(const RelationSchema& schema,
                                       TupleView a, TupleView b) const {
  double total = 0.0;
  for (const size_t pos : schema.flexible_positions()) {
    const Value& va = a.value(pos);
    const Value& vb = b.value(pos);
    if (va.is_null() && vb.is_null()) continue;
    const double da = va.is_null() ? 0.0 : va.AsNumeric();
    const double db = vb.is_null() ? 0.0 : vb.AsNumeric();
    total += schema.attribute(pos).alpha * ScalarDistance(da, db);
  }
  return total;
}

double DistanceFunction::UpdatesDistance(
    const Schema& schema, const std::vector<AppliedUpdate>& updates) const {
  double total = 0.0;
  for (size_t i = 0; i < updates.size();) {
    const TupleRef tuple = updates[i].tuple;
    const RelationSchema& relation = schema.relations()[tuple.relation];
    double tuple_total = 0.0;
    for (; i < updates.size() && updates[i].tuple == tuple; ++i) {
      const AppliedUpdate& update = updates[i];
      tuple_total += relation.attribute(update.attribute).alpha *
                     ScalarDistance(static_cast<double>(update.old_value),
                                    static_cast<double>(update.new_value));
    }
    total += tuple_total;
  }
  return total;
}

Result<double> DistanceFunction::DatabaseDistance(
    const Database& d, const Database& d_prime) const {
  if (&d.schema() != &d_prime.schema()) {
    return Status::InvalidArgument(
        "Delta-distance requires both instances to share one schema");
  }
  double total = 0.0;
  for (size_t r = 0; r < d.relation_count(); ++r) {
    const Table& ta = d.table(r);
    const Table& tb = d_prime.table(r);
    if (ta.size() != tb.size()) {
      return Status::InvalidArgument(
          "Delta-distance requires the same key set per relation; '" +
          ta.schema().name() + "' differs in cardinality");
    }
    const RelationSchema& schema = ta.schema();
    const auto& kp = schema.key_positions();
    for (size_t row = 0; row < ta.size(); ++row) {
      // Match by key. A repair is a clone updated in place, so row `row` of
      // tb almost always carries the same key; look it up only otherwise.
      // Keys are unique, so either way the pair (and the sum) is the same.
      const TupleView a = ta.row(row);
      size_t other_row = row;
      for (const size_t pos : kp) {
        if (a.value(pos) != tb.row(row).value(pos)) {
          std::vector<Value> key;
          key.reserve(kp.size());
          for (const size_t p : kp) key.push_back(a.value(p));
          DBREPAIR_ASSIGN_OR_RETURN(other_row, tb.LookupByKey(key));
          break;
        }
      }
      total += TupleDistance(schema, a, tb.row(other_row));
    }
  }
  return total;
}

}  // namespace dbrepair
