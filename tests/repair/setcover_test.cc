#include "repair/setcover/solvers.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
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

// The MWSCP matrix of Example 3.3 (sets S1..S7 as ids 0..6).
CsrSetCoverInstance PaperExample33() {
  return MakeInstance(4, {
                             {1.0, {0, 1}},    // S1 = t1^1 (EF := 0)
                             {0.5, {0}},       // S2 = t1^2 (PRC := 50)
                             {0.5, {1}},       // S3 = t1^3 (CF := 1)
                             {1.5, {0, 3}},    // S4 = t1^4 (PRC := 70)
                             {1.0, {2}},       // S5 = t2^1 (EF := 0)
                             {1.5, {2}},       // S6 = t2^2 (PRC := 50)
                             {1.0, {3}},       // S7 = p1^1 (Pag := 40)
                         });
}

TEST(SetCoverInstanceTest, ValidateAccepts) {
  const CsrSetCoverInstance instance = PaperExample33();
  EXPECT_TRUE(instance.Validate().ok());
  EXPECT_EQ(instance.num_sets(), 7u);
  EXPECT_EQ(instance.max_frequency(), 3u);  // element 0 in S1, S2, S4
}

TEST(SetCoverInstanceTest, ValidateRejectsUncoveredElement) {
  const CsrSetCoverInstance instance = MakeInstance(3, {{1.0, {0, 1}}});
  EXPECT_FALSE(instance.Validate().ok());
}

TEST(SetCoverInstanceTest, ValidateRejectsUnsortedSet) {
  const CsrSetCoverInstance instance = MakeInstance(2, {{1.0, {1, 0}}});
  EXPECT_FALSE(instance.Validate().ok());
}

TEST(SetCoverInstanceTest, ValidateRejectsDuplicateElement) {
  const CsrSetCoverInstance instance = MakeInstance(2, {{1.0, {0, 0, 1}}});
  EXPECT_FALSE(instance.Validate().ok());
}

TEST(SetCoverInstanceTest, SelectionHelpers) {
  const CsrSetCoverInstance instance = PaperExample33();
  EXPECT_TRUE(IsCover(instance, {0, 4, 6}));
  EXPECT_FALSE(IsCover(instance, {0, 4}));
  EXPECT_DOUBLE_EQ(SelectionWeight(instance, {0, 4, 6}), 3.0);
}

TEST(GreedyTest, PaperExample34Trace) {
  // Example 3.4 walks the greedy: it picks S1, then S5, then S7 and reaches
  // the optimum weight 3.
  const CsrSetCoverInstance instance = PaperExample33();
  const auto solution = GreedySetCover(instance);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->chosen, (std::vector<uint32_t>{0, 4, 6}));
  EXPECT_DOUBLE_EQ(solution->weight, 3.0);
}

TEST(ModifiedGreedyTest, MatchesGreedyOnPaperExample) {
  const CsrSetCoverInstance instance = PaperExample33();
  const auto greedy = GreedySetCover(instance);
  const auto modified = ModifiedGreedySetCover(instance);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(modified.ok());
  EXPECT_EQ(modified->chosen, greedy->chosen);
  EXPECT_DOUBLE_EQ(modified->weight, greedy->weight);
}

TEST(LazyGreedyTest, MatchesGreedyOnPaperExample) {
  const CsrSetCoverInstance instance = PaperExample33();
  const auto greedy = GreedySetCover(instance);
  const auto lazy = LazyGreedySetCover(instance);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(lazy.ok());
  EXPECT_EQ(lazy->chosen, greedy->chosen);
  EXPECT_DOUBLE_EQ(lazy->weight, greedy->weight);
}

TEST(ExactTest, PaperExampleOptimum) {
  const CsrSetCoverInstance instance = PaperExample33();
  const auto exact = ExactSetCover(instance);
  ASSERT_TRUE(exact.ok());
  EXPECT_DOUBLE_EQ(exact->weight, 3.0);
  EXPECT_TRUE(IsCover(instance, exact->chosen));
}

TEST(LayerTest, ProducesValidCover) {
  const CsrSetCoverInstance instance = PaperExample33();
  const auto layer = LayerSetCover(instance);
  ASSERT_TRUE(layer.ok());
  EXPECT_TRUE(IsCover(instance, layer->chosen));
  // Layer approximates within factor f = 3.
  EXPECT_LE(layer->weight, 3.0 * 3.0 + 1e-9);
}

TEST(ModifiedLayerTest, MatchesLayerOnPaperExample) {
  const CsrSetCoverInstance instance = PaperExample33();
  const auto layer = LayerSetCover(instance);
  const auto modified = ModifiedLayerSetCover(instance);
  ASSERT_TRUE(layer.ok());
  ASSERT_TRUE(modified.ok());
  EXPECT_TRUE(IsCover(instance, modified->chosen));
  EXPECT_NEAR(modified->weight, layer->weight, 1e-6);
}

TEST(SolversTest, SingletonInstance) {
  const CsrSetCoverInstance instance = MakeInstance(1, {{2.0, {0}}});
  for (const SolverKind kind :
       {SolverKind::kGreedy, SolverKind::kModifiedGreedy,
        SolverKind::kLazyGreedy, SolverKind::kLayer,
        SolverKind::kModifiedLayer, SolverKind::kExact}) {
    const auto solution = SolveSetCover(kind, instance);
    ASSERT_TRUE(solution.ok()) << SolverKindName(kind);
    EXPECT_EQ(solution->chosen, (std::vector<uint32_t>{0}));
    EXPECT_DOUBLE_EQ(solution->weight, 2.0);
  }
}

TEST(SolversTest, EmptyInstanceNeedsNoSets) {
  const CsrSetCoverInstance instance = MakeInstance(0, {});
  for (const SolverKind kind :
       {SolverKind::kGreedy, SolverKind::kModifiedGreedy,
        SolverKind::kLazyGreedy, SolverKind::kLayer,
        SolverKind::kModifiedLayer, SolverKind::kExact}) {
    const auto solution = SolveSetCover(kind, instance);
    ASSERT_TRUE(solution.ok()) << SolverKindName(kind);
    EXPECT_TRUE(solution->chosen.empty());
    EXPECT_DOUBLE_EQ(solution->weight, 0.0);
  }
}

TEST(SolversTest, InfeasibleInstanceReportsError) {
  const CsrSetCoverInstance instance = MakeInstance(2, {{1.0, {0}}});
  for (const SolverKind kind :
       {SolverKind::kGreedy, SolverKind::kModifiedGreedy,
        SolverKind::kLazyGreedy, SolverKind::kLayer,
        SolverKind::kModifiedLayer}) {
    EXPECT_FALSE(SolveSetCover(kind, instance).ok()) << SolverKindName(kind);
  }
}

TEST(GreedyTest, ClassicLogFactorWorstCase) {
  // Elements 0..5; singleton sets of increasing value plus one big cheap
  // set: greedy picks the singletons, optimal picks the big set.
  const CsrSetCoverInstance instance = MakeInstance(
      6, {
             {1.0 + 1e-3, {0, 1, 2, 3, 4, 5}},  // optimal
             {1.0 / 6.0 - 1e-6, {0}},
             {1.0 / 5.0 - 1e-6, {1}},
             {1.0 / 4.0 - 1e-6, {2}},
             {1.0 / 3.0 - 1e-6, {3}},
             {1.0 / 2.0 - 1e-6, {4}},
             {1.0 - 1e-6, {5}},
         });
  const auto greedy = GreedySetCover(instance);
  const auto exact = ExactSetCover(instance);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(exact.ok());
  EXPECT_GT(greedy->weight, exact->weight);
  // H_6 bound.
  const double h6 = 1 + 0.5 + 1.0 / 3 + 0.25 + 0.2 + 1.0 / 6;
  EXPECT_LE(greedy->weight, h6 * exact->weight + 1e-9);
}

// ---- Randomised cross-checks. ----

CsrSetCoverInstance RandomInstance(Rng* rng, size_t num_elements,
                                   size_t num_sets) {
  SetCoverInstance instance;
  instance.num_elements = num_elements;
  std::vector<bool> covered(num_elements, false);
  for (size_t s = 0; s < num_sets; ++s) {
    std::vector<uint32_t> elems;
    const size_t size = 1 + rng->Uniform(4);
    for (size_t i = 0; i < size; ++i) {
      elems.push_back(static_cast<uint32_t>(rng->Uniform(num_elements)));
    }
    std::sort(elems.begin(), elems.end());
    elems.erase(std::unique(elems.begin(), elems.end()), elems.end());
    for (const uint32_t e : elems) covered[e] = true;
    instance.sets.push_back(std::move(elems));
    instance.weights.push_back(1.0 + static_cast<double>(rng->Uniform(10)));
  }
  // Guarantee feasibility with singletons for missed elements.
  for (uint32_t e = 0; e < num_elements; ++e) {
    if (!covered[e]) {
      instance.sets.push_back({e});
      instance.weights.push_back(5.0);
    }
  }
  return CsrSetCoverInstance::Freeze(instance);
}

class RandomInstanceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomInstanceTest, AllSolversProduceValidCovers) {
  Rng rng(GetParam());
  const CsrSetCoverInstance instance = RandomInstance(&rng, 30, 40);
  ASSERT_TRUE(instance.Validate().ok());

  const auto exact = ExactSetCover(instance);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(IsCover(instance, exact->chosen));

  for (const SolverKind kind :
       {SolverKind::kGreedy, SolverKind::kModifiedGreedy,
        SolverKind::kLazyGreedy, SolverKind::kLayer,
        SolverKind::kModifiedLayer}) {
    const auto solution = SolveSetCover(kind, instance);
    ASSERT_TRUE(solution.ok()) << SolverKindName(kind);
    EXPECT_TRUE(IsCover(instance, solution->chosen)) << SolverKindName(kind);
    // No approximation may beat the optimum.
    EXPECT_GE(solution->weight, exact->weight - 1e-9) << SolverKindName(kind);
    EXPECT_DOUBLE_EQ(solution->weight,
                     SelectionWeight(instance, solution->chosen));
  }

  // The modified and lazy greedies compute the same cover as the textbook
  // greedy (identical tie-breaking on set ids).
  const auto greedy = GreedySetCover(instance);
  const auto modified = ModifiedGreedySetCover(instance);
  const auto lazy = LazyGreedySetCover(instance);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(modified.ok());
  ASSERT_TRUE(lazy.ok());
  EXPECT_EQ(greedy->chosen, modified->chosen);
  EXPECT_EQ(greedy->chosen, lazy->chosen);

  // The layer algorithms honour the frequency bound f * OPT.
  const double f = static_cast<double>(instance.max_frequency());
  const auto layer = LayerSetCover(instance);
  const auto modified_layer = ModifiedLayerSetCover(instance);
  ASSERT_TRUE(layer.ok());
  ASSERT_TRUE(modified_layer.ok());
  EXPECT_LE(layer->weight, f * exact->weight + 1e-6);
  EXPECT_LE(modified_layer->weight, f * exact->weight + 1e-6);
  EXPECT_NEAR(layer->weight, modified_layer->weight,
              1e-6 * (1.0 + layer->weight));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomInstanceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11, 12, 13, 14, 15, 16));

TEST(ExactTest, NodeBudgetExhaustion) {
  Rng rng(77);
  const CsrSetCoverInstance instance = RandomInstance(&rng, 40, 60);
  ExactSetCoverOptions options;
  options.max_nodes = 1;
  EXPECT_EQ(ExactSetCover(instance, options).status().code(),
            StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace dbrepair
