#ifndef DBREPAIR_REPAIR_SETCOVER_PRUNE_H_
#define DBREPAIR_REPAIR_SETCOVER_PRUNE_H_

#include "repair/setcover/csr_instance.h"

namespace dbrepair {

/// Removes redundant sets from a cover: a chosen set is redundant when every
/// element it covers is covered by some other chosen set. Candidates are
/// examined heaviest-first (ties on lower id) so the most expensive
/// redundancy is dropped first. The result is still a cover and never
/// weighs more; iteration counts are preserved from the input.
///
/// Greedy and layer covers both can contain redundant sets (greedy when an
/// early pick is later fully re-covered; layer when several sets tighten in
/// one batch); this pass is the standard cleanup and is exposed through
/// RepairOptions::prune_cover as an ablation of the paper's pipeline.
SetCoverSolution PruneRedundantSets(const CsrSetCoverInstance& instance,
                                    const SetCoverSolution& solution);

}  // namespace dbrepair

#endif  // DBREPAIR_REPAIR_SETCOVER_PRUNE_H_
