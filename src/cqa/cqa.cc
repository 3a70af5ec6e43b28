#include "cqa/cqa.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include <cmath>
#include <limits>

#include "repair/instance_builder.h"
#include "sql/parser.h"

namespace dbrepair {
namespace {

// A WHERE conjunct resolved to column positions of the single relation.
struct ResolvedPredicate {
  bool lhs_is_column = false;
  uint32_t lhs_column = 0;
  Value lhs_literal;
  CompareOp op = CompareOp::kEq;
  bool rhs_is_column = false;
  uint32_t rhs_column = 0;
  Value rhs_literal;
};

struct RowKey {
  std::vector<Value> values;
  bool operator==(const RowKey& other) const { return values == other.values; }
};

struct RowKeyHash {
  size_t operator()(const RowKey& k) const {
    size_t h = 0x811c9dc5;
    for (const Value& v : k.values) h = h * 1099511628211ULL + v.Hash();
    return h;
  }
};

}  // namespace

Result<CqaResult> ConsistentAnswers(const Database& db,
                                    const std::vector<BoundConstraint>& ics,
                                    const SelectStatement& query,
                                    const CqaOptions& options) {
  if (query.from.size() != 1) {
    return Status::InvalidArgument(
        "CQA supports single-relation queries (one FROM entry)");
  }
  if (!query.order_by.empty()) {
    return Status::InvalidArgument(
        "CQA output is grouped by certainty; ORDER BY is not supported");
  }
  const Table* table = db.FindTable(query.from[0].table);
  if (table == nullptr) {
    return Status::NotFound("unknown table '" + query.from[0].table + "'");
  }
  DBREPAIR_ASSIGN_OR_RETURN(const uint32_t relation,
                            db.RelationIndex(query.from[0].table));
  const RelationSchema& schema = table->schema();
  const std::string& alias = query.from[0].effective_alias();

  auto resolve = [&](const ColumnRef& ref) -> Result<uint32_t> {
    if (!ref.table_alias.empty() && ref.table_alias != alias) {
      return Status::NotFound("unknown table alias '" + ref.table_alias +
                              "'");
    }
    const auto pos = schema.FindAttribute(ref.column);
    if (!pos.has_value()) {
      return Status::NotFound("no column '" + ref.column + "' in '" +
                              schema.name() + "'");
    }
    return static_cast<uint32_t>(*pos);
  };

  // Resolve the projection.
  std::vector<uint32_t> projection;
  CqaResult result;
  if (query.select_all) {
    for (uint32_t pos = 0; pos < schema.arity(); ++pos) {
      projection.push_back(pos);
      result.columns.push_back(schema.attribute(pos).name);
    }
  } else {
    for (const ColumnRef& ref : query.select) {
      DBREPAIR_ASSIGN_OR_RETURN(const uint32_t pos, resolve(ref));
      projection.push_back(pos);
      result.columns.push_back(ref.ToString());
    }
  }

  // Resolve the predicate.
  std::vector<ResolvedPredicate> predicates;
  for (const SqlComparison& cmp : query.where) {
    ResolvedPredicate p;
    p.op = cmp.op;
    if (cmp.lhs.kind == SqlExpr::Kind::kColumn) {
      p.lhs_is_column = true;
      DBREPAIR_ASSIGN_OR_RETURN(p.lhs_column, resolve(cmp.lhs.column));
    } else {
      p.lhs_literal = cmp.lhs.literal;
    }
    if (cmp.rhs.kind == SqlExpr::Kind::kColumn) {
      p.rhs_is_column = true;
      DBREPAIR_ASSIGN_OR_RETURN(p.rhs_column, resolve(cmp.rhs.column));
    } else {
      p.rhs_literal = cmp.rhs.literal;
    }
    predicates.push_back(std::move(p));
  }

  // The repair space: candidate fixes grouped per tuple and attribute.
  DBREPAIR_ASSIGN_OR_RETURN(
      const RepairProblem problem,
      BuildRepairProblem(db, ics, DistanceFunction()));
  // tuple row -> (attribute -> alternative values).
  std::unordered_map<uint32_t, std::map<uint32_t, std::vector<int64_t>>>
      alternatives;
  for (const CandidateFix& fix : problem.fixes) {
    if (fix.tuple.relation != relation) continue;
    alternatives[fix.tuple.row][fix.attribute].push_back(fix.new_value);
  }

  auto selected = [&](TupleView t) {
    for (const ResolvedPredicate& p : predicates) {
      const Value& lhs =
          p.lhs_is_column ? t.value(p.lhs_column) : p.lhs_literal;
      const Value& rhs =
          p.rhs_is_column ? t.value(p.rhs_column) : p.rhs_literal;
      if (!EvalCompare(lhs, p.op, rhs)) return false;
    }
    return true;
  };
  auto project = [&](TupleView t) {
    RowKey key;
    key.values.reserve(projection.size());
    for (const uint32_t pos : projection) key.values.push_back(t.value(pos));
    return key;
  };

  // Classify per tuple, then merge over tuples (certain wins).
  std::unordered_map<RowKey, AnswerKind, RowKeyHash> classified;
  std::vector<RowKey> order;  // first-seen order
  auto record = [&](RowKey key, AnswerKind kind) {
    const auto [it, inserted] = classified.emplace(key, kind);
    if (inserted) {
      order.push_back(std::move(key));
    } else if (kind == AnswerKind::kCertain) {
      it->second = AnswerKind::kCertain;
    }
  };

  for (uint32_t row = 0; row < table->size(); ++row) {
    const TupleView original = table->row(row);
    const auto alt_it = alternatives.find(row);
    if (alt_it == alternatives.end()) {
      // Consistent tuple: one state only.
      if (selected(original)) record(project(original), AnswerKind::kCertain);
      continue;
    }
    // Enumerate the combo set.
    const auto& attr_values = alt_it->second;
    size_t combos = 1;
    bool capped = false;
    for (const auto& [attr, values] : attr_values) {
      combos *= values.size() + 1;  // + original
      if (combos > options.max_combos_per_tuple) {
        capped = true;
        break;
      }
    }
    if (capped) {
      ++result.capped_tuples;
      if (selected(original)) {
        record(project(original), AnswerKind::kPossibleOnly);
      }
      continue;
    }
    Tuple combo(original.values());
    bool all_selected = true;
    bool any_selected = false;
    RowKey first_projection;
    bool same_projection = true;
    std::vector<RowKey> seen;
    auto enumerate = [&](auto&& self,
                         std::map<uint32_t,
                                  std::vector<int64_t>>::const_iterator it)
        -> void {
      if (it == attr_values.end()) {
        if (!selected(combo.view())) {
          all_selected = false;
          return;
        }
        RowKey key = project(combo.view());
        if (!any_selected) {
          first_projection = key;
        } else if (!(key == first_projection)) {
          same_projection = false;
        }
        any_selected = true;
        seen.push_back(std::move(key));
        return;
      }
      const auto& [attr, values] = *it;
      const Value original_value = combo.value(attr);
      auto next = std::next(it);
      self(self, next);
      for (const int64_t v : values) {
        combo.set_value(attr, Value::Int(v));
        self(self, next);
      }
      combo.set_value(attr, original_value);
    };
    enumerate(enumerate, attr_values.begin());

    if (all_selected && any_selected && same_projection) {
      record(std::move(first_projection), AnswerKind::kCertain);
    } else {
      for (RowKey& key : seen) record(std::move(key),
                                      AnswerKind::kPossibleOnly);
    }
  }

  // Emit certain rows first, then possible-only, in first-seen order.
  for (const AnswerKind pass :
       {AnswerKind::kCertain, AnswerKind::kPossibleOnly}) {
    for (const RowKey& key : order) {
      const auto it = classified.find(key);
      if (it != classified.end() && it->second == pass) {
        result.rows.push_back(ClassifiedRow{key.values, pass});
      }
    }
  }
  return result;
}

Result<CqaResult> ConsistentAnswers(const Database& db,
                                    const std::vector<BoundConstraint>& ics,
                                    std::string_view sql,
                                    const CqaOptions& options) {
  DBREPAIR_ASSIGN_OR_RETURN(const SelectStatement query, ParseSelect(sql));
  return ConsistentAnswers(db, ics, query, options);
}

namespace {

// Emits an integral double as an INT value for readability.
Value NumericValue(double v) {
  if (std::nearbyint(v) == v && std::abs(v) < 9.0e15) {
    return Value::Int(static_cast<int64_t>(v));
  }
  return Value::Double(v);
}

}  // namespace

Result<AggregateRange> AggregateConsistentRange(
    const Database& db, const std::vector<BoundConstraint>& ics,
    std::string_view sql, const CqaOptions& options) {
  DBREPAIR_ASSIGN_OR_RETURN(const SelectStatement query, ParseSelect(sql));
  if (query.from.size() != 1 || query.aggregates.size() != 1 ||
      !query.select.empty() || query.select_all || !query.order_by.empty()) {
    return Status::InvalidArgument(
        "aggregate CQA expects exactly one aggregate over one relation");
  }
  const AggregateExpr& agg = query.aggregates[0];
  if (agg.func == AggregateExpr::Func::kAvg) {
    return Status::InvalidArgument(
        "AVG ranges are not decomposable per tuple; use SUM and COUNT");
  }
  const Table* table = db.FindTable(query.from[0].table);
  if (table == nullptr) {
    return Status::NotFound("unknown table '" + query.from[0].table + "'");
  }
  DBREPAIR_ASSIGN_OR_RETURN(const uint32_t relation,
                            db.RelationIndex(query.from[0].table));
  const RelationSchema& schema = table->schema();
  const std::string& alias = query.from[0].effective_alias();

  auto resolve = [&](const ColumnRef& ref) -> Result<uint32_t> {
    if (!ref.table_alias.empty() && ref.table_alias != alias) {
      return Status::NotFound("unknown table alias '" + ref.table_alias +
                              "'");
    }
    const auto pos = schema.FindAttribute(ref.column);
    if (!pos.has_value()) {
      return Status::NotFound("no column '" + ref.column + "' in '" +
                              schema.name() + "'");
    }
    return static_cast<uint32_t>(*pos);
  };

  uint32_t agg_column = 0;
  if (!agg.star) {
    DBREPAIR_ASSIGN_OR_RETURN(agg_column, resolve(agg.column));
  }

  std::vector<ResolvedPredicate> predicates;
  for (const SqlComparison& cmp : query.where) {
    ResolvedPredicate p;
    p.op = cmp.op;
    if (cmp.lhs.kind == SqlExpr::Kind::kColumn) {
      p.lhs_is_column = true;
      DBREPAIR_ASSIGN_OR_RETURN(p.lhs_column, resolve(cmp.lhs.column));
    } else {
      p.lhs_literal = cmp.lhs.literal;
    }
    if (cmp.rhs.kind == SqlExpr::Kind::kColumn) {
      p.rhs_is_column = true;
      DBREPAIR_ASSIGN_OR_RETURN(p.rhs_column, resolve(cmp.rhs.column));
    } else {
      p.rhs_literal = cmp.rhs.literal;
    }
    predicates.push_back(std::move(p));
  }
  auto selected = [&](TupleView t) {
    for (const ResolvedPredicate& p : predicates) {
      const Value& lhs =
          p.lhs_is_column ? t.value(p.lhs_column) : p.lhs_literal;
      const Value& rhs =
          p.rhs_is_column ? t.value(p.rhs_column) : p.rhs_literal;
      if (!EvalCompare(lhs, p.op, rhs)) return false;
    }
    return true;
  };

  DBREPAIR_ASSIGN_OR_RETURN(
      const RepairProblem problem,
      BuildRepairProblem(db, ics, DistanceFunction()));
  std::unordered_map<uint32_t, std::map<uint32_t, std::vector<int64_t>>>
      alternatives;
  for (const CandidateFix& fix : problem.fixes) {
    if (fix.tuple.relation != relation) continue;
    alternatives[fix.tuple.row][fix.attribute].push_back(fix.new_value);
  }

  AggregateRange result;
  const double inf = std::numeric_limits<double>::infinity();
  bool some_tuple_always_selected = false;
  int64_t count_lower = 0;
  int64_t count_upper = 0;
  double sum_lower = 0.0;
  double sum_upper = 0.0;
  bool any_some = false;   // some tuple may be selected (with a value)
  bool any_all = false;    // some tuple is selected+non-null in all combos
  double min_lower = inf;  // global min possible selected value
  double min_upper = inf;  // min over always-selected tuples of their max
  double max_lower = -inf;
  double max_upper = -inf;

  for (uint32_t row = 0; row < table->size(); ++row) {
    const TupleView original = table->row(row);
    // Per-tuple summary over its combo set.
    bool sel_all = true;        // selected (and value non-null) in all combos
    bool sel_some = false;      // selected with non-null value somewhere
    bool sel_some_any = false;  // selected at all (COUNT(*))
    bool sel_all_any = true;    // selected in all combos (COUNT(*))
    double val_min = inf, val_max = -inf;
    double contrib_min = inf, contrib_max = -inf;  // SUM contribution

    auto account = [&](TupleView t) {
      const bool sel = selected(t);
      sel_some_any |= sel;
      sel_all_any &= sel;
      const Value& v = agg.star ? Value() : t.value(agg_column);
      const bool has = !agg.star && !v.is_null();
      if (sel && has) {
        sel_some = true;
        const double x = v.AsNumeric();
        val_min = std::min(val_min, x);
        val_max = std::max(val_max, x);
        contrib_min = std::min(contrib_min, x);
        contrib_max = std::max(contrib_max, x);
      } else {
        sel_all = false;
        contrib_min = std::min(contrib_min, 0.0);
        contrib_max = std::max(contrib_max, 0.0);
      }
    };

    const auto alt_it = alternatives.find(row);
    if (alt_it == alternatives.end()) {
      account(original);
    } else {
      size_t combos = 1;
      bool capped = false;
      for (const auto& [attr, values] : alt_it->second) {
        combos *= values.size() + 1;
        if (combos > options.max_combos_per_tuple) {
          capped = true;
          break;
        }
      }
      if (capped) {
        ++result.capped_tuples;
        // Conservative: may or may not be selected; the value ranges over
        // the original plus every fix value of the aggregate column.
        sel_all = false;
        sel_all_any = false;
        sel_some_any = true;
        if (!agg.star) {
          const Value& v = original.value(agg_column);
          if (!v.is_null()) {
            val_min = std::min(val_min, v.AsNumeric());
            val_max = std::max(val_max, v.AsNumeric());
            sel_some = true;
          }
          const auto col_it = alt_it->second.find(agg_column);
          if (col_it != alt_it->second.end()) {
            for (const int64_t x : col_it->second) {
              val_min = std::min(val_min, static_cast<double>(x));
              val_max = std::max(val_max, static_cast<double>(x));
              sel_some = true;
            }
          }
        }
        contrib_min = std::min(0.0, val_min == inf ? 0.0 : val_min);
        contrib_max = std::max(0.0, val_max == -inf ? 0.0 : val_max);
      } else {
        Tuple combo(original.values());
        auto enumerate =
            [&](auto&& self,
                std::map<uint32_t, std::vector<int64_t>>::const_iterator it)
            -> void {
          if (it == alt_it->second.end()) {
            account(combo.view());
            return;
          }
          const auto& [attr, values] = *it;
          const Value saved = combo.value(attr);
          auto next = std::next(it);
          self(self, next);
          for (const int64_t x : values) {
            combo.set_value(attr, Value::Int(x));
            self(self, next);
          }
          combo.set_value(attr, saved);
        };
        enumerate(enumerate, alt_it->second.begin());
      }
    }

    // Fold the per-tuple summary into the aggregate bounds.
    if (sel_all_any) some_tuple_always_selected = true;
    switch (agg.func) {
      case AggregateExpr::Func::kCount:
        if (agg.star) {
          if (sel_all_any) ++count_lower;
          if (sel_some_any) ++count_upper;
        } else {
          if (sel_all) ++count_lower;
          if (sel_some) ++count_upper;
        }
        break;
      case AggregateExpr::Func::kSum:
        if (contrib_min != inf) sum_lower += contrib_min;
        if (contrib_max != -inf) sum_upper += contrib_max;
        break;
      case AggregateExpr::Func::kMin:
      case AggregateExpr::Func::kMax:
        if (sel_some) {
          any_some = true;
          min_lower = std::min(min_lower, val_min);
          max_upper = std::max(max_upper, val_max);
        }
        if (sel_all) {
          any_all = true;
          min_upper = std::min(min_upper, val_max);
          max_lower = std::max(max_lower, val_min);
        }
        break;
      case AggregateExpr::Func::kAvg:
        break;  // rejected above
    }
  }

  switch (agg.func) {
    case AggregateExpr::Func::kCount:
      result.lower = Value::Int(count_lower);
      result.upper = Value::Int(count_upper);
      result.may_be_empty = count_lower == 0;
      break;
    case AggregateExpr::Func::kSum:
      result.lower = NumericValue(sum_lower);
      result.upper = NumericValue(sum_upper);
      result.may_be_empty = !some_tuple_always_selected;
      break;
    case AggregateExpr::Func::kMin:
      if (any_some) result.lower = NumericValue(min_lower);
      if (any_all) result.upper = NumericValue(min_upper);
      result.may_be_empty = !any_all;
      break;
    case AggregateExpr::Func::kMax:
      if (any_all) result.lower = NumericValue(max_lower);
      if (any_some) result.upper = NumericValue(max_upper);
      result.may_be_empty = !any_all;
      break;
    case AggregateExpr::Func::kAvg:
      break;
  }
  return result;
}

}  // namespace dbrepair

