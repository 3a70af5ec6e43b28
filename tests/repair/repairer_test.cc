#include "repair/api.h"

#include <gtest/gtest.h>

#include "constraints/parser.h"
#include "constraints/violation_engine.h"
#include "gen/census.h"
#include "gen/client_buy.h"
#include "gen/paper_example.h"

namespace dbrepair {
namespace {

bool IsConsistent(const Database& db,
                  const std::vector<DenialConstraint>& ics) {
  auto bound = BindAll(db.schema(), ics);
  EXPECT_TRUE(bound.ok());
  auto satisfied = ViolationEngine::Satisfies(db, *bound);
  EXPECT_TRUE(satisfied.ok());
  return satisfied.value();
}

TEST(RepairerTest, PaperTableExampleReachesOptimalDistance) {
  // Example 2.3: the repairs of D have distance 2.
  const GeneratedWorkload w = MakePaperTableExample();
  RepairOptions options;
  options.solver = SolverKind::kExact;
  const auto outcome = RepairDatabase(w.db, w.ics, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_DOUBLE_EQ(outcome->stats.distance, 2.0);
  EXPECT_TRUE(IsConsistent(outcome->repaired, w.ics));
}

TEST(RepairerTest, GreedyFindsOptimalCoverOnExample34) {
  // Example 3.4: greedy reaches the optimum weight 3 via S1, S5, S7, which
  // updates EF(t1) := 0, EF(t2) := 0, Pag(p1) := 40.
  const GeneratedWorkload w = MakePaperPubExample();
  RepairOptions options;
  options.solver = SolverKind::kGreedy;
  const auto outcome = RepairDatabase(w.db, w.ics, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_DOUBLE_EQ(outcome->stats.cover_weight, 3.0);
  EXPECT_DOUBLE_EQ(outcome->stats.distance, 3.0);
  EXPECT_EQ(outcome->stats.num_chosen_fixes, 3u);
  EXPECT_TRUE(IsConsistent(outcome->repaired, w.ics));

  // The repair is exactly D(C1) from Example 3.3.
  const Table& paper = *outcome->repaired.FindTable("Paper");
  EXPECT_EQ(paper.row(0).value(1), Value::Int(0));  // t1 EF := 0
  EXPECT_EQ(paper.row(1).value(1), Value::Int(0));  // t2 EF := 0
  const Table& pub = *outcome->repaired.FindTable("Pub");
  EXPECT_EQ(pub.row(0).value(2), Value::Int(40));  // p1 Pag := 40
  EXPECT_EQ(pub.row(1).value(2), Value::Int(30));  // p2 untouched
}

TEST(RepairerTest, AllSolversRepairThePaperExample) {
  const GeneratedWorkload w = MakePaperPubExample();
  for (const SolverKind kind :
       {SolverKind::kGreedy, SolverKind::kModifiedGreedy, SolverKind::kLayer,
        SolverKind::kModifiedLayer, SolverKind::kExact}) {
    RepairOptions options;
    options.solver = kind;
    const auto outcome = RepairDatabase(w.db, w.ics, options);
    ASSERT_TRUE(outcome.ok()) << SolverKindName(kind);
    EXPECT_TRUE(IsConsistent(outcome->repaired, w.ics))
        << SolverKindName(kind);
    EXPECT_GE(outcome->stats.cover_weight, 3.0 - 1e-9)
        << SolverKindName(kind);
  }
}

TEST(RepairerTest, RejectsNonLocalConstraints) {
  const auto schema = MakeClientBuySchema();
  Database db(schema);
  auto ics = ParseConstraintSet(
      ":- Client(id, a, c), a < 18\n"
      ":- Client(id, a, c), a > 90\n");
  ASSERT_TRUE(ics.ok());
  const auto outcome = RepairDatabase(db, *ics);
  EXPECT_EQ(outcome.status().code(), StatusCode::kConstraintNotLocal);
}

TEST(RepairerTest, ConsistentDatabaseIsUntouched) {
  Database db(MakeClientBuySchema());
  ASSERT_TRUE(
      db.Insert("Client", {Value::Int(1), Value::Int(40), Value::Int(90)})
          .ok());
  const auto outcome = RepairDatabase(db, MakeClientBuyConstraints());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->stats.num_violations, 0u);
  EXPECT_EQ(outcome->stats.num_updates, 0u);
  EXPECT_DOUBLE_EQ(outcome->stats.distance, 0.0);
}

TEST(RepairerTest, SubsumptionKeepsHigherWeightFixPerAttribute) {
  // Two constraints pushing PRC-like attribute in the same direction with
  // different bounds; forcing a cover that includes both fixes must apply
  // only the stronger one. We simulate by running the layer solver, which
  // can pick redundant sets, and assert consistency + single final value.
  auto schema = std::make_shared<Schema>();
  ASSERT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "R",
                      {AttributeDef{"K", Type::kInt64, false, 1.0},
                       AttributeDef{"X", Type::kInt64, true, 1.0}},
                      {"K"}))
                  .ok());
  Database db(schema);
  ASSERT_TRUE(db.Insert("R", {Value::Int(1), Value::Int(5)}).ok());
  auto ics = ParseConstraintSet(
      ":- R(k, x), x < 10\n"
      ":- R(k, x), x < 20\n");
  ASSERT_TRUE(ics.ok());
  for (const SolverKind kind :
       {SolverKind::kGreedy, SolverKind::kLayer, SolverKind::kExact}) {
    RepairOptions options;
    options.solver = kind;
    const auto outcome = RepairDatabase(db, *ics, options);
    ASSERT_TRUE(outcome.ok()) << SolverKindName(kind);
    // Only x := 20 satisfies both constraints.
    EXPECT_EQ(outcome->repaired.table(0).row(0).value(1), Value::Int(20))
        << SolverKindName(kind);
  }
}

// ApplyCover's subsumption rule, pinned on a hand-made cover: of several
// picks on one (tuple, attribute), the higher weight wins and equal weights
// keep the first pick in cover order; the updates come out in ascending
// (relation, row, attribute) order whatever the cover order.
TEST(RepairerTest, ApplyCoverSubsumptionAndUpdateOrder) {
  auto schema = std::make_shared<Schema>();
  ASSERT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "R",
                      {AttributeDef{"K", Type::kInt64, false, 1.0},
                       AttributeDef{"X", Type::kInt64, true, 1.0},
                       AttributeDef{"Y", Type::kInt64, true, 1.0}},
                      {"K"}))
                  .ok());
  ASSERT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "S",
                      {AttributeDef{"K", Type::kInt64, false, 1.0},
                       AttributeDef{"Z", Type::kInt64, true, 1.0}},
                      {"K"}))
                  .ok());
  Database db(schema);
  for (int64_t k = 0; k < 3; ++k) {
    ASSERT_TRUE(db.Insert("R", {Value::Int(k), Value::Int(0), Value::Int(0)})
                    .ok());
  }
  ASSERT_TRUE(db.Insert("S", {Value::Int(0), Value::Int(0)}).ok());

  RepairProblem problem;
  const auto add_fix = [&](uint32_t relation, uint32_t row, uint32_t attribute,
                           int64_t new_value, double weight) {
    CandidateFix fix;
    fix.tuple = TupleRef{relation, row};
    fix.attribute = attribute;
    fix.new_value = new_value;
    fix.weight = weight;
    problem.fixes.push_back(fix);
  };
  add_fix(0, 1, 1, 7, 2.0);  // f0: R[1].X, lighter
  add_fix(0, 1, 1, 9, 3.0);  // f1: R[1].X, heavier, picked after f0
  add_fix(0, 0, 2, 4, 1.0);  // f2: R[0].Y, tie, picked after f3
  add_fix(0, 0, 2, 6, 1.0);  // f3: R[0].Y, tie, picked first
  add_fix(1, 0, 1, 5, 1.0);  // f4: S[0].Z, alone
  add_fix(0, 0, 1, 3, 1.0);  // f5: R[0].X, alone
  add_fix(0, 2, 1, 8, 5.0);  // f6: R[2].X, heavier, picked first
  add_fix(0, 2, 1, 2, 1.0);  // f7: R[2].X, lighter, picked after f6

  SetCoverSolution cover;
  cover.chosen = {4, 0, 6, 3, 5, 2, 1, 7};
  std::vector<AppliedUpdate> updates;
  const auto repaired = ApplyCover(db, problem, cover, &updates);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();

  struct Expected {
    uint32_t relation, row, attribute;
    int64_t new_value;
  };
  const std::vector<Expected> expected = {
      {0, 0, 1, 3},  // f5
      {0, 0, 2, 6},  // f3: equal weight, first in cover order
      {0, 1, 1, 9},  // f1: higher weight, even though picked later
      {0, 2, 1, 8},  // f6: higher weight, picked first
      {1, 0, 1, 5},  // f4
  };
  ASSERT_EQ(updates.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(updates[i].tuple.relation, expected[i].relation) << i;
    EXPECT_EQ(updates[i].tuple.row, expected[i].row) << i;
    EXPECT_EQ(updates[i].attribute, expected[i].attribute) << i;
    EXPECT_EQ(updates[i].new_value, expected[i].new_value) << i;
    EXPECT_EQ(repaired->table(expected[i].relation)
                  .row(expected[i].row)
                  .value(expected[i].attribute),
              Value::Int(expected[i].new_value))
        << i;
  }
}

TEST(RepairerTest, CombinesMonoLocalFixesOfOneTuple) {
  // A tuple violating two constraints on different attributes gets a single
  // combined local fix (Definition 3.2).
  Database db(MakeClientBuySchema());
  ASSERT_TRUE(
      db.Insert("Client", {Value::Int(1), Value::Int(15), Value::Int(90)})
          .ok());
  ASSERT_TRUE(
      db.Insert("Buy", {Value::Int(1), Value::Int(1), Value::Int(50)}).ok());
  const auto outcome = RepairDatabase(db, MakeClientBuyConstraints());
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(IsConsistent(outcome->repaired, MakeClientBuyConstraints()));
}

class GeneratedWorkloadRepairTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratedWorkloadRepairTest, ClientBuyAllSolversProduceRepairs) {
  ClientBuyOptions gen;
  gen.num_clients = 60;
  gen.seed = GetParam();
  auto workload = GenerateClientBuy(gen);
  ASSERT_TRUE(workload.ok());

  double exact_weight = -1;
  {
    RepairOptions options;
    options.solver = SolverKind::kExact;
    const auto outcome = RepairDatabase(workload->db, workload->ics, options);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    exact_weight = outcome->stats.cover_weight;
    EXPECT_TRUE(IsConsistent(outcome->repaired, workload->ics));
    // For exact covers the realised distance equals the cover weight.
    EXPECT_NEAR(outcome->stats.distance, exact_weight, 1e-9);
  }
  for (const SolverKind kind :
       {SolverKind::kGreedy, SolverKind::kModifiedGreedy, SolverKind::kLayer,
        SolverKind::kModifiedLayer}) {
    RepairOptions options;
    options.solver = kind;
    const auto outcome = RepairDatabase(workload->db, workload->ics, options);
    ASSERT_TRUE(outcome.ok()) << SolverKindName(kind);
    EXPECT_TRUE(IsConsistent(outcome->repaired, workload->ics))
        << SolverKindName(kind);
    EXPECT_GE(outcome->stats.cover_weight, exact_weight - 1e-9);
    // The realised repair can only be cheaper than the cover (subsumption).
    EXPECT_LE(outcome->stats.distance,
              outcome->stats.cover_weight + 1e-9);
  }
}

TEST_P(GeneratedWorkloadRepairTest, CensusRepairsAreConsistent) {
  CensusOptions gen;
  gen.num_households = 50;
  gen.seed = GetParam();
  auto workload = GenerateCensus(gen);
  ASSERT_TRUE(workload.ok());
  const auto outcome = RepairDatabase(workload->db, workload->ics);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(IsConsistent(outcome->repaired, workload->ics));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedWorkloadRepairTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace dbrepair
