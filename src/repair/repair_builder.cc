#include "repair/repair_builder.h"

#include <algorithm>
#include <string>

namespace dbrepair {

Result<std::vector<uint32_t>> CoverCellFixes(
    const std::vector<CandidateFix>& fixes,
    const std::vector<uint32_t>& chosen) {
  // One record per pick, stably sorted on its cell: each cell's picks stay
  // in cover order, so "first in cover order" is "first in its run".
  struct Pick {
    uint64_t tuple;
    uint32_t attribute;
    uint32_t fix;
  };
  std::vector<Pick> picks;
  picks.reserve(chosen.size());
  for (const uint32_t set_id : chosen) {
    if (set_id >= fixes.size()) {
      return Status::InvalidArgument("cover references unknown set id " +
                                     std::to_string(set_id));
    }
    picks.push_back(
        Pick{fixes[set_id].tuple.Packed(), fixes[set_id].attribute, set_id});
  }
  std::stable_sort(picks.begin(), picks.end(),
                   [](const Pick& a, const Pick& b) {
                     if (a.tuple != b.tuple) return a.tuple < b.tuple;
                     return a.attribute < b.attribute;
                   });

  std::vector<uint32_t> cells;
  for (size_t i = 0; i < picks.size();) {
    uint32_t best = picks[i].fix;
    size_t j = i + 1;
    for (; j < picks.size() && picks[j].tuple == picks[i].tuple &&
           picks[j].attribute == picks[i].attribute;
         ++j) {
      if (fixes[best].weight < fixes[picks[j].fix].weight) best = picks[j].fix;
    }
    cells.push_back(best);
    i = j;
  }
  return cells;
}

Result<Database> ApplyCover(const Database& db, const RepairProblem& problem,
                            const SetCoverSolution& cover,
                            std::vector<AppliedUpdate>* applied) {
  DBREPAIR_ASSIGN_OR_RETURN(const std::vector<uint32_t> cells,
                            CoverCellFixes(problem.fixes, cover.chosen));
  Database repaired = db.Clone();
  if (applied != nullptr) applied->reserve(applied->size() + cells.size());
  for (const uint32_t fix_id : cells) {
    const CandidateFix& fix = problem.fixes[fix_id];
    DBREPAIR_RETURN_IF_ERROR(
        repaired.mutable_table(fix.tuple.relation)
            .UpdateValue(fix.tuple.row, fix.attribute,
                         Value::Int(fix.new_value)));
    if (applied != nullptr) {
      applied->push_back(AppliedUpdate{fix.tuple, fix.attribute,
                                       fix.old_value, fix.new_value});
    }
  }
  return repaired;
}

}  // namespace dbrepair
