#include "storage/statistics.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "storage/column_view.h"

namespace dbrepair {

TableStats ComputeTableStats(const Table& table) {
  TableStats stats;
  stats.row_count = table.size();
  const size_t arity = table.schema().arity();
  stats.columns.resize(arity);
  std::vector<std::unordered_set<Value, ValueHash>> distinct(arity);
  std::vector<std::vector<double>> numeric(arity);

  for (const TupleView row : table.rows()) {
    for (size_t c = 0; c < arity; ++c) {
      const Value& v = row.value(c);
      if (v.is_null()) continue;
      ColumnStats& col = stats.columns[c];
      ++col.non_null;
      distinct[c].insert(v);
      if (v.is_int() || v.is_double()) {
        const double x = v.AsNumeric();
        numeric[c].push_back(x);
        if (!col.has_range) {
          col.has_range = true;
          col.min = col.max = x;
        } else {
          col.min = std::min(col.min, x);
          col.max = std::max(col.max, x);
        }
      }
    }
  }
  for (size_t c = 0; c < arity; ++c) {
    ColumnStats& col = stats.columns[c];
    col.distinct = distinct[c].size();
    // Equi-depth histogram: ~kHistogramBuckets buckets of equal population.
    std::vector<double>& values = numeric[c];
    if (values.empty()) continue;
    std::sort(values.begin(), values.end());
    const size_t buckets = std::min(kHistogramBuckets, values.size());
    for (size_t b = 1; b <= buckets; ++b) {
      const size_t end = values.size() * b / buckets;  // cumulative count
      col.bucket_upper.push_back(values[end - 1]);
      col.bucket_cumulative.push_back(end);
    }
  }
  return stats;
}

namespace {

/// Target sample size for ComputeColumnStats' distinct / histogram pass.
constexpr size_t kStatsSampleTarget = 2048;

}  // namespace

TableStats ComputeColumnStats(const RelationColumns& rel) {
  TableStats stats;
  const size_t n = rel.row_count;
  stats.row_count = n;
  stats.columns.resize(rel.columns.size());
  if (n == 0) return stats;
  const size_t stride = std::max<size_t>(1, n / kStatsSampleTarget);

  for (size_t c = 0; c < rel.columns.size(); ++c) {
    const ColumnData& data = rel.columns[c];
    ColumnStats& col = stats.columns[c];
    col.non_null = n;  // clean() columns hold no NULLs

    // Exact min/max in one vectorisable pass over the typed array.
    const bool numeric = data.type != Type::kString;
    if (numeric) {
      col.has_range = true;
      if (data.type == Type::kInt64) {
        const auto [lo, hi] =
            std::minmax_element(data.ints.begin(), data.ints.end());
        col.min = static_cast<double>(*lo);
        col.max = static_cast<double>(*hi);
      } else {
        const auto [lo, hi] =
            std::minmax_element(data.doubles.begin(), data.doubles.end());
        col.min = *lo;
        col.max = *hi;
      }
    }

    // Fixed-stride sample: key-code occurrence counts for the distinct
    // estimate, raw numeric values for the histogram.
    std::unordered_map<uint64_t, uint32_t> counts;
    std::vector<double> values;
    for (size_t row = 0; row < n; row += stride) {
      ++counts[data.KeyCode(static_cast<uint32_t>(row))];
      if (numeric) {
        values.push_back(data.type == Type::kInt64
                             ? static_cast<double>(data.ints[row])
                             : data.doubles[row]);
      }
    }
    const size_t s = (n + stride - 1) / stride;

    // Distinct estimate. A duplicate-free sample reads as a key column
    // (where GEE's sqrt scaling would badly undershoot — 1/distinct drives
    // equality selectivity, so key columns must estimate high); otherwise
    // GEE: sampled-distinct plus the once-seen values scaled by sqrt(n / s),
    // clamped to [sampled-distinct, n].
    size_t once = 0;
    for (const auto& [code, count] : counts) {
      if (count == 1) ++once;
    }
    if (counts.size() == s) {
      col.distinct = n;
    } else {
      const double scale =
          std::sqrt(static_cast<double>(n) / static_cast<double>(s)) - 1.0;
      const double estimate = static_cast<double>(counts.size()) +
                              scale * static_cast<double>(once);
      col.distinct = static_cast<size_t>(
          std::clamp(estimate, static_cast<double>(counts.size()),
                     static_cast<double>(n)));
    }

    // Equi-depth histogram over the sample, cumulative counts scaled back to
    // the full row count (the last bucket lands exactly on non_null).
    if (!values.empty()) {
      std::sort(values.begin(), values.end());
      const size_t buckets = std::min(kHistogramBuckets, values.size());
      for (size_t b = 1; b <= buckets; ++b) {
        const size_t end = values.size() * b / buckets;
        col.bucket_upper.push_back(values[end - 1]);
        col.bucket_cumulative.push_back(end * n / values.size());
      }
    }
  }
  return stats;
}

double EstimateFractionBelow(const ColumnStats& stats, double c) {
  if (stats.non_null == 0) return 0.0;
  const double total = static_cast<double>(
      stats.bucket_cumulative.empty() ? 0 : stats.bucket_cumulative.back());
  if (!stats.bucket_upper.empty() && total > 0) {
    if (c <= stats.min) return 0.0;
    if (c > stats.max) return 1.0;
    double prev_upper = stats.min;
    size_t prev_cum = 0;
    for (size_t b = 0; b < stats.bucket_upper.size(); ++b) {
      const double upper = stats.bucket_upper[b];
      const size_t cum = stats.bucket_cumulative[b];
      if (c <= upper) {
        // Interpolate inside the bucket (prev_upper, upper].
        const double span = upper - prev_upper;
        const double in_bucket = static_cast<double>(cum - prev_cum);
        const double partial =
            span > 0 ? (c - prev_upper) / span : 0.0;
        return (static_cast<double>(prev_cum) +
                std::clamp(partial, 0.0, 1.0) * in_bucket) /
               total;
      }
      prev_upper = upper;
      prev_cum = cum;
    }
    return 1.0;
  }
  // No histogram: uniform model over [min, max].
  if (!stats.has_range) return 1.0 / 3.0;
  const double span = stats.max - stats.min;
  if (span <= 0.0) return c > stats.min ? 1.0 : 0.0;
  return std::clamp((c - stats.min) / span, 0.0, 1.0);
}

double EstimateSelectivity(const TableStats& stats, size_t column,
                           CompareOp op, const Value& constant) {
  if (stats.row_count == 0 || column >= stats.columns.size()) return 1.0;
  const ColumnStats& col = stats.columns[column];
  const double rows = static_cast<double>(stats.row_count);
  const double non_null_fraction = static_cast<double>(col.non_null) / rows;
  if (col.non_null == 0) return 0.0;

  switch (op) {
    case CompareOp::kEq:
      return col.distinct > 0
                 ? non_null_fraction / static_cast<double>(col.distinct)
                 : non_null_fraction;
    case CompareOp::kNe:
      return col.distinct > 0
                 ? non_null_fraction *
                       (1.0 - 1.0 / static_cast<double>(col.distinct))
                 : non_null_fraction;
    default:
      break;
  }
  // Range comparison: histogram when present, else uniform interpolation.
  if (!col.has_range || !(constant.is_int() || constant.is_double())) {
    return non_null_fraction / 3.0;
  }
  const double c = constant.AsNumeric();
  const double below = EstimateFractionBelow(col, c);
  double fraction = 0.0;
  switch (op) {
    case CompareOp::kLt:
    case CompareOp::kLe:
      fraction = below;
      break;
    case CompareOp::kGt:
    case CompareOp::kGe:
      fraction = 1.0 - below;
      break;
    default:
      fraction = 1.0 / 3.0;
      break;
  }
  return std::clamp(fraction, 0.0, 1.0) * non_null_fraction;
}

}  // namespace dbrepair
