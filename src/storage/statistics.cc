#include "storage/statistics.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "storage/column_view.h"

namespace dbrepair {

namespace {

/// Target sample size for ComputeColumnStats' distinct / histogram pass.
constexpr size_t kStatsSampleTarget = 2048;

/// One column's fixed-stride sample of its non-NULL cells: occurrence
/// counts per value key for the distinct estimate, numeric values for the
/// histogram.
struct ColumnSample {
  std::unordered_map<uint64_t, uint32_t> counts;
  std::vector<double> values;
  size_t size = 0;
};

/// Clean column: non_null is the row count, min/max come from one
/// vectorisable pass over the typed array, and the sample is keyed by the
/// column's key codes.
void SummariseTyped(const ColumnData& data, size_t n, size_t stride,
                    ColumnStats* col, ColumnSample* sample) {
  col->non_null = n;
  const bool numeric = data.type != Type::kString;
  if (numeric) {
    col->has_range = true;
    if (data.type == Type::kInt64) {
      const auto [lo, hi] =
          std::minmax_element(data.ints.begin(), data.ints.end());
      col->min = static_cast<double>(*lo);
      col->max = static_cast<double>(*hi);
    } else {
      const auto [lo, hi] =
          std::minmax_element(data.doubles.begin(), data.doubles.end());
      col->min = *lo;
      col->max = *hi;
    }
  }
  for (size_t row = 0; row < n; row += stride) {
    ++sample->counts[data.KeyCode(static_cast<uint32_t>(row))];
    ++sample->size;
    if (numeric) {
      sample->values.push_back(data.type == Type::kInt64
                                   ? static_cast<double>(data.ints[row])
                                   : data.doubles[row]);
    }
  }
}

/// Unclean column: the typed array holds placeholders for NULLs, so one
/// pass over the row store's Values gives exact non_null and min/max over
/// the non-NULL cells, and the same stride rows feed the sample, keyed by
/// Value::Hash. A NaN cell counts as non-NULL but joins no numeric summary.
void SummariseValues(const Table& table, size_t column, size_t stride,
                     ColumnStats* col, ColumnSample* sample) {
  const size_t n = table.size();
  for (size_t row = 0; row < n; ++row) {
    const Value& v = table.row(static_cast<uint32_t>(row)).value(column);
    if (v.is_null()) continue;
    ++col->non_null;
    const bool sampled = row % stride == 0;
    if (sampled) {
      ++sample->counts[v.Hash()];
      ++sample->size;
    }
    if (!(v.is_int() || v.is_double())) continue;
    const double x = v.AsNumeric();
    if (std::isnan(x)) continue;
    if (sampled) sample->values.push_back(x);
    if (!col->has_range) {
      col->has_range = true;
      col->min = col->max = x;
    } else {
      col->min = std::min(col->min, x);
      col->max = std::max(col->max, x);
    }
  }
}

/// Distinct estimate and equi-depth histogram of `col` from its sample,
/// scaled to col->non_null.
void EstimateFromSample(ColumnSample* sample, ColumnStats* col) {
  const size_t total = col->non_null;
  // A duplicate-free sample reads as a key column (where GEE's sqrt scaling
  // would badly undershoot — 1/distinct drives equality selectivity, so key
  // columns must estimate high); otherwise GEE: sampled-distinct plus the
  // once-seen values scaled by sqrt(total / s), clamped to
  // [sampled-distinct, total].
  const size_t seen = sample->counts.size();
  if (seen == sample->size) {
    col->distinct = total;
  } else {
    size_t once = 0;
    for (const auto& [key, count] : sample->counts) {
      if (count == 1) ++once;
    }
    const double scale = std::sqrt(static_cast<double>(total) /
                                   static_cast<double>(sample->size)) -
                         1.0;
    const double estimate =
        static_cast<double>(seen) + scale * static_cast<double>(once);
    col->distinct = static_cast<size_t>(std::clamp(
        estimate, static_cast<double>(seen), static_cast<double>(total)));
  }

  // Equi-depth histogram over the sample, cumulative counts scaled back to
  // non_null (the last bucket lands exactly on it).
  std::vector<double>& values = sample->values;
  if (values.empty()) return;
  std::sort(values.begin(), values.end());
  const size_t buckets = std::min(kHistogramBuckets, values.size());
  for (size_t b = 1; b <= buckets; ++b) {
    const size_t end = values.size() * b / buckets;
    col->bucket_upper.push_back(values[end - 1]);
    col->bucket_cumulative.push_back(end * total / values.size());
  }
}

}  // namespace

TableStats ComputeColumnStats(const RelationColumns& rel, const Table& table) {
  TableStats stats;
  const size_t n = rel.row_count;
  stats.row_count = n;
  stats.columns.resize(rel.columns.size());
  if (n == 0) return stats;
  const size_t stride = std::max<size_t>(1, n / kStatsSampleTarget);
  for (size_t c = 0; c < rel.columns.size(); ++c) {
    const ColumnData& data = rel.columns[c];
    ColumnStats& col = stats.columns[c];
    ColumnSample sample;
    if (data.clean()) {
      SummariseTyped(data, n, stride, &col, &sample);
    } else {
      SummariseValues(table, c, stride, &col, &sample);
    }
    EstimateFromSample(&sample, &col);
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
