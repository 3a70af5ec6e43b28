#include "repair/instance_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "gen/paper_example.h"
#include "repair/mono_local_fix.h"
#include "repair/setcover/csr_instance.h"

namespace dbrepair {
namespace {

TEST(MonoLocalFixValueTest, MinOfLessThanBounds) {
  // Definition 2.8(2a): A < c1, ..., A < cn -> Min{c_i}.
  const std::vector<FlexibleComparison> cmps = {
      {0, 0, 1, CompareOp::kLt, 50},
      {0, 0, 1, CompareOp::kLt, 70},
  };
  EXPECT_EQ(MonoLocalFixValue(cmps), std::optional<int64_t>(50));
}

TEST(MonoLocalFixValueTest, MaxOfGreaterThanBounds) {
  const std::vector<FlexibleComparison> cmps = {
      {0, 0, 1, CompareOp::kGt, 40},
      {0, 0, 1, CompareOp::kGt, 10},
  };
  EXPECT_EQ(MonoLocalFixValue(cmps), std::optional<int64_t>(40));
}

TEST(MonoLocalFixValueTest, MixedOrEmptyIsNull) {
  EXPECT_EQ(MonoLocalFixValue({}), std::nullopt);
  const std::vector<FlexibleComparison> mixed = {
      {0, 0, 1, CompareOp::kLt, 50},
      {0, 0, 1, CompareOp::kGt, 10},
  };
  EXPECT_EQ(MonoLocalFixValue(mixed), std::nullopt);
}

// Reproduces the full MWSCP instance of Example 3.3.
class Example33Test : public ::testing::Test {
 protected:
  Example33Test() : workload_(MakePaperPubExample()) {
    auto bound = BindAll(workload_.db.schema(), workload_.ics);
    EXPECT_TRUE(bound.ok());
    auto problem = BuildRepairProblem(workload_.db, *bound,
                                      DistanceFunction(DistanceKind::kL1));
    EXPECT_TRUE(problem.ok()) << problem.status().ToString();
    problem_ = std::move(problem).value();
  }

  // Finds the candidate fix touching (tuple, attribute, value).
  const CandidateFix* FindFix(TupleRef t, uint32_t attr, int64_t value) {
    for (const CandidateFix& fix : problem_.fixes) {
      if (fix.tuple == t && fix.attribute == attr && fix.new_value == value) {
        return &fix;
      }
    }
    return nullptr;
  }

  GeneratedWorkload workload_;
  RepairProblem problem_;
};

TEST_F(Example33Test, ElementsAreTheFourViolationSets) {
  EXPECT_EQ(problem_.violations.size(), 4u);
  EXPECT_EQ(problem_.instance.num_elements, 4u);
}

TEST_F(Example33Test, SevenCandidateFixes) {
  // S1..S7 of the paper's table: 4 fixes of t1, 2 of t2, 1 of p1.
  EXPECT_EQ(problem_.fixes.size(), 7u);
  EXPECT_EQ(problem_.instance.sets.size(), 7u);
}

TEST_F(Example33Test, FixValuesAndWeightsMatchPaperTable) {
  const TupleRef t1{0, 0}, t2{0, 1}, p1{1, 0};
  struct Expected {
    TupleRef tuple;
    uint32_t attr;
    int64_t value;
    double weight;
    size_t solved_count;
  };
  const Expected expected[] = {
      {t1, 1, 0, 1.0, 2},   // S1: EF := 0 solves ({t1},ic1), ({t1},ic2)
      {t1, 2, 50, 0.5, 1},  // S2: PRC := 50 solves ({t1},ic1)
      {t1, 3, 1, 0.5, 1},   // S3: CF := 1 solves ({t1},ic2)
      {t1, 2, 70, 1.5, 2},  // S4: PRC := 70 solves ({t1},ic1), ({t1,p1},ic3)
      {t2, 1, 0, 1.0, 1},   // S5: EF := 0 solves ({t2},ic1)
      {t2, 2, 50, 1.5, 1},  // S6: PRC := 50 solves ({t2},ic1)
      {p1, 2, 40, 1.0, 1},  // S7: Pag := 40 solves ({t1,p1},ic3)
  };
  for (const Expected& e : expected) {
    const CandidateFix* fix = FindFix(e.tuple, e.attr, e.value);
    ASSERT_NE(fix, nullptr)
        << "missing fix attr=" << e.attr << " value=" << e.value;
    EXPECT_DOUBLE_EQ(fix->weight, e.weight);
    EXPECT_EQ(fix->solved.size(), e.solved_count);
  }
}

TEST_F(Example33Test, CrossConstraintLinks) {
  // S1 (EF := 0) solves the ic1 and ic2 singletons of t1, not the ic3 pair.
  const TupleRef t1{0, 0};
  const CandidateFix* s1 = FindFix(t1, 1, 0);
  ASSERT_NE(s1, nullptr);
  std::vector<uint32_t> ics_solved;
  for (const uint32_t v : s1->solved) {
    ics_solved.push_back(problem_.violations[v].ic_index);
  }
  std::sort(ics_solved.begin(), ics_solved.end());
  EXPECT_EQ(ics_solved, (std::vector<uint32_t>{0, 1}));

  // S4 (PRC := 70) solves the ic1 singleton and the ic3 pair.
  const CandidateFix* s4 = FindFix(t1, 2, 70);
  ASSERT_NE(s4, nullptr);
  ics_solved.clear();
  for (const uint32_t v : s4->solved) {
    ics_solved.push_back(problem_.violations[v].ic_index);
  }
  std::sort(ics_solved.begin(), ics_solved.end());
  EXPECT_EQ(ics_solved, (std::vector<uint32_t>{0, 2}));
}

TEST_F(Example33Test, InstanceIsValidAndFeasible) {
  const CsrSetCoverInstance instance =
      CsrSetCoverInstance::Freeze(problem_.instance);
  EXPECT_TRUE(instance.Validate().ok());
  EXPECT_EQ(instance.max_frequency(), 3u);
  EXPECT_EQ(problem_.degrees.max_degree, 3u);
}

TEST_F(Example33Test, DeduplicationAcrossConstraints) {
  // MLF(t1, ic1, EF) and MLF(t1, ic2, EF) coincide (EF := 0); exactly one
  // candidate fix exists for (t1, EF).
  const TupleRef t1{0, 0};
  int count = 0;
  for (const CandidateFix& fix : problem_.fixes) {
    if (fix.tuple == t1 && fix.attribute == 1) ++count;
  }
  EXPECT_EQ(count, 1);
}

TEST(InstanceBuilderTest, ConsistentDatabaseYieldsEmptyProblem) {
  const GeneratedWorkload w = MakePaperTableExample();
  Database consistent(w.db.schema_ptr());
  ASSERT_TRUE(consistent
                  .Insert("Paper", {Value::String("E3"), Value::Int(1),
                                    Value::Int(70), Value::Int(1)})
                  .ok());
  auto bound = BindAll(consistent.schema(), w.ics);
  ASSERT_TRUE(bound.ok());
  auto problem = BuildRepairProblem(consistent, *bound, DistanceFunction());
  ASSERT_TRUE(problem.ok());
  EXPECT_TRUE(problem->violations.empty());
  EXPECT_TRUE(problem->fixes.empty());
  EXPECT_EQ(problem->instance.num_elements, 0u);
}

TEST(InstanceBuilderTest, L2WeightsSquareTheChange) {
  const GeneratedWorkload w = MakePaperPubExample();
  auto bound = BindAll(w.db.schema(), w.ics);
  ASSERT_TRUE(bound.ok());
  auto problem = BuildRepairProblem(w.db, *bound,
                                    DistanceFunction(DistanceKind::kL2));
  ASSERT_TRUE(problem.ok());
  // S2: PRC 40 -> 50 under L2: (1/20) * 100 = 5.
  bool found = false;
  for (const CandidateFix& fix : problem->fixes) {
    if (fix.tuple == (TupleRef{0, 0}) && fix.attribute == 2 &&
        fix.new_value == 50) {
      EXPECT_DOUBLE_EQ(fix.weight, 5.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace dbrepair
