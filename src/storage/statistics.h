#ifndef DBREPAIR_STORAGE_STATISTICS_H_
#define DBREPAIR_STORAGE_STATISTICS_H_

#include <cstddef>
#include <vector>

#include "constraints/ast.h"  // CompareOp
#include "storage/table.h"

namespace dbrepair {

/// Per-column statistics used by the violation engine's planner.
struct ColumnStats {
  size_t non_null = 0;
  /// Range is tracked for numeric columns only.
  bool has_range = false;
  double min = 0.0;
  double max = 0.0;
  /// Exact count of distinct non-null values.
  size_t distinct = 0;
  /// Equi-depth histogram over the numeric values (ascending inclusive
  /// bucket upper bounds with cumulative counts). Empty for non-numeric
  /// columns. Gives skew-robust range selectivities where the plain
  /// [min, max] uniform model would be badly off.
  std::vector<double> bucket_upper;
  std::vector<size_t> bucket_cumulative;
};

/// Statistics of one table: row count plus per-column summaries.
struct TableStats {
  size_t row_count = 0;
  std::vector<ColumnStats> columns;
};

/// Number of equi-depth histogram buckets built per numeric column.
inline constexpr size_t kHistogramBuckets = 32;

struct RelationColumns;  // storage/column_view.h

/// Planner statistics of one relation from its columnar snapshot `rel` and
/// its row store `table` (rel must be a snapshot of table). Row count,
/// non-null counts and min/max are exact; distinct counts and equi-depth
/// histograms come from a fixed-stride row sample (deterministic — no RNG),
/// with distinct extrapolated by the GEE estimator and both scaled to the
/// column's non-null count. A clean() column is read from its typed array
/// and sampled by key code; an unclean one (NULLs, or lossy) is read from
/// the row store's Values, skipping NULLs, and sampled by Value::Hash.
/// Estimates can differ from exact values, so the planner may pick a
/// different join order — which never changes the enumerated violation
/// sets (set semantics), only how fast they are found.
TableStats ComputeColumnStats(const RelationColumns& rel, const Table& table);

/// Estimated fraction of the column's non-null values strictly below `c`,
/// from the histogram when present, else linear interpolation in
/// [min, max]. Returns a value in [0, 1].
double EstimateFractionBelow(const ColumnStats& stats, double c);

/// Estimated fraction of rows satisfying `column op constant`, assuming
/// values are uniform over [min, max] (numeric) or uniform over the
/// distinct values (equality). Clamped to [0, 1]; defaults to 1/3 for
/// inequalities with no range information (the classic System-R guess).
double EstimateSelectivity(const TableStats& stats, size_t column,
                           CompareOp op, const Value& constant);

}  // namespace dbrepair

#endif  // DBREPAIR_STORAGE_STATISTICS_H_
