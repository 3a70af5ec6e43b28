#include "repair/setcover/prune.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "repair/setcover/solvers.h"
#include "setcover_testing.h"

namespace dbrepair {
namespace {

CsrSetCoverInstance MakeInstance(
    size_t num_elements,
    std::vector<std::pair<double, std::vector<uint32_t>>> sets) {
  SetCoverInstance instance;
  instance.num_elements = num_elements;
  for (auto& [w, elems] : sets) {
    instance.weights.push_back(w);
    instance.sets.push_back(std::move(elems));
  }
  return CsrSetCoverInstance::Freeze(instance);
}

TEST(PruneTest, RemovesGreedyRedundantPick) {
  // Greedy picks S0 = {1, 2} first (best ratio), then needs S1 and S2 for
  // the endpoints — which re-cover everything S0 covered.
  const CsrSetCoverInstance instance = MakeInstance(4, {
                                                           {1.0, {1, 2}},
                                                           {1.9, {0, 1}},
                                                           {1.9, {2, 3}},
                                                       });
  const auto greedy = GreedySetCover(instance);
  ASSERT_TRUE(greedy.ok());
  ASSERT_EQ(greedy->chosen.size(), 3u);
  EXPECT_DOUBLE_EQ(greedy->weight, 4.8);

  const SetCoverSolution pruned = PruneRedundantSets(instance, *greedy);
  EXPECT_EQ(pruned.chosen, (std::vector<uint32_t>{1, 2}));
  EXPECT_DOUBLE_EQ(pruned.weight, 3.8);
  EXPECT_TRUE(IsCover(instance, pruned.chosen));
}

TEST(PruneTest, KeepsIrredundantCover) {
  const CsrSetCoverInstance instance = MakeInstance(2, {
                                                           {1.0, {0}},
                                                           {1.0, {1}},
                                                       });
  const SetCoverSolution solution{{0, 1}, 2.0, 2};
  const SetCoverSolution pruned = PruneRedundantSets(instance, solution);
  EXPECT_EQ(pruned.chosen, solution.chosen);
  EXPECT_DOUBLE_EQ(pruned.weight, 2.0);
}

TEST(PruneTest, DropsHeaviestRedundantFirst) {
  // Both S0 and S2 are individually redundant given the others, but
  // removing the heavy S2 first keeps S0 needed... elements: S0={0},
  // S1={0,1}, S2={1}. Cover {S0,S1,S2}: S0 redundant (0 in S1), S2
  // redundant (1 in S1). Both can go; prune keeps only S1.
  const CsrSetCoverInstance instance = MakeInstance(2, {
                                                           {1.0, {0}},
                                                           {1.0, {0, 1}},
                                                           {3.0, {1}},
                                                       });
  const SetCoverSolution solution{{0, 1, 2}, 5.0, 3};
  const SetCoverSolution pruned = PruneRedundantSets(instance, solution);
  EXPECT_EQ(pruned.chosen, (std::vector<uint32_t>{1}));
  EXPECT_DOUBLE_EQ(pruned.weight, 1.0);
}

TEST(PruneTest, MutualRedundancyRemovesOnlyOne) {
  // S0 and S1 are identical: exactly one must survive.
  const CsrSetCoverInstance instance = MakeInstance(2, {
                                                           {2.0, {0, 1}},
                                                           {1.0, {0, 1}},
                                                       });
  const SetCoverSolution solution{{0, 1}, 3.0, 2};
  const SetCoverSolution pruned = PruneRedundantSets(instance, solution);
  ASSERT_EQ(pruned.chosen.size(), 1u);
  // The heavier S0 is examined (and removed) first.
  EXPECT_EQ(pruned.chosen[0], 1u);
}

class PrunePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrunePropertyTest, NeverWorsensAndStaysACover) {
  Rng rng(GetParam());
  SetCoverInstance record;
  record.num_elements = 40;
  std::vector<bool> covered(record.num_elements, false);
  for (size_t s = 0; s < 70; ++s) {
    std::vector<uint32_t> elems;
    const size_t size = 1 + rng.Uniform(5);
    for (size_t i = 0; i < size; ++i) {
      elems.push_back(
          static_cast<uint32_t>(rng.Uniform(record.num_elements)));
    }
    std::sort(elems.begin(), elems.end());
    elems.erase(std::unique(elems.begin(), elems.end()), elems.end());
    for (const uint32_t e : elems) covered[e] = true;
    record.sets.push_back(std::move(elems));
    record.weights.push_back(1.0 + static_cast<double>(rng.Uniform(9)));
  }
  for (uint32_t e = 0; e < record.num_elements; ++e) {
    if (!covered[e]) {
      record.sets.push_back({e});
      record.weights.push_back(3.0);
    }
  }
  const CsrSetCoverInstance instance = CsrSetCoverInstance::Freeze(record);

  for (const SolverKind kind :
       {SolverKind::kGreedy, SolverKind::kLayer,
        SolverKind::kModifiedLayer}) {
    const auto solution = SolveSetCover(kind, instance);
    ASSERT_TRUE(solution.ok());
    const SetCoverSolution pruned = PruneRedundantSets(instance, *solution);
    EXPECT_TRUE(IsCover(instance, pruned.chosen)) << SolverKindName(kind);
    EXPECT_LE(pruned.weight, solution->weight + 1e-9) << SolverKindName(kind);
    // Idempotent.
    const SetCoverSolution again = PruneRedundantSets(instance, pruned);
    EXPECT_EQ(again.chosen, pruned.chosen);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrunePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace dbrepair
