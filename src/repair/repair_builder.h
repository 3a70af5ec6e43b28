#ifndef DBREPAIR_REPAIR_REPAIR_BUILDER_H_
#define DBREPAIR_REPAIR_REPAIR_BUILDER_H_

#include <vector>

#include "common/status.h"
#include "repair/distance.h"
#include "repair/instance_builder.h"
#include "repair/setcover/instance.h"
#include "storage/database.h"

namespace dbrepair {

/// The cells a cover changes: one fix id per (tuple, attribute) the chosen
/// fixes touch, in ascending (relation, row, attribute) order. Of several
/// chosen fixes on one cell — possible in non-optimal covers — the higher
/// weight subsumes the others (Section 3, remark after Algorithm 1); on
/// equal weight the first in `chosen` order wins. Fails on a set id outside
/// `fixes`.
Result<std::vector<uint32_t>> CoverCellFixes(
    const std::vector<CandidateFix>& fixes,
    const std::vector<uint32_t>& chosen);

/// Materialises the repair D(C) of Definition 3.2 from a set cover:
///  * fixes of one tuple touching different attributes are combined into a
///    single local fix (Definition 3.2(a));
///  * of several fixes on one (tuple, attribute), CoverCellFixes keeps one;
///  * the resulting updates are applied to a clone of `db`, and listed in
///    `applied` in ascending (relation, row, attribute) order — the order
///    DistanceFunction::UpdatesDistance needs to reproduce
///    DatabaseDistance(db, repaired) bit for bit.
Result<Database> ApplyCover(const Database& db, const RepairProblem& problem,
                            const SetCoverSolution& cover,
                            std::vector<AppliedUpdate>* applied = nullptr);

}  // namespace dbrepair

#endif  // DBREPAIR_REPAIR_REPAIR_BUILDER_H_
