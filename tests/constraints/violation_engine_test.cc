#include "constraints/violation_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "constraints/parser.h"
#include "gen/client_buy.h"
#include "gen/paper_example.h"

namespace dbrepair {
namespace {

std::vector<ViolationSet> Find(const Database& db,
                               const std::vector<DenialConstraint>& ics,
                               ViolationEngineOptions options = {}) {
  auto bound = BindAll(db.schema(), ics);
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  ViolationEngine engine(db, *bound, options);
  auto violations = engine.FindViolations();
  EXPECT_TRUE(violations.ok()) << violations.status().ToString();
  return std::move(violations).value();
}

TEST(ViolationEngineTest, PaperExample25ViolationSets) {
  // Example 2.5: I(D, ic1) = {{t1}, {t2}}, I(D, ic2) = {{t1}},
  // I(D, ic3) = {{t1, p1}}.
  const GeneratedWorkload w = MakePaperPubExample();
  const std::vector<ViolationSet> violations = Find(w.db, w.ics);
  ASSERT_EQ(violations.size(), 4u);

  const TupleRef t1{0, 0}, t2{0, 1}, p1{1, 0};
  // Sorted by (ic, tuples): ic1:{t1}, ic1:{t2}, ic2:{t1}, ic3:{t1,p1}.
  EXPECT_EQ(violations[0].ic_index, 0u);
  EXPECT_EQ(violations[0].tuples, (std::vector<TupleRef>{t1}));
  EXPECT_EQ(violations[1].ic_index, 0u);
  EXPECT_EQ(violations[1].tuples, (std::vector<TupleRef>{t2}));
  EXPECT_EQ(violations[2].ic_index, 1u);
  EXPECT_EQ(violations[2].tuples, (std::vector<TupleRef>{t1}));
  EXPECT_EQ(violations[3].ic_index, 2u);
  EXPECT_EQ(violations[3].tuples, (std::vector<TupleRef>{t1, p1}));
}

TEST(ViolationEngineTest, DegreesOfInconsistency) {
  const GeneratedWorkload w = MakePaperPubExample();
  const std::vector<ViolationSet> violations = Find(w.db, w.ics);
  const DegreeInfo degrees = ComputeDegrees(violations);
  EXPECT_EQ(degrees.Degree(TupleRef{0, 0}), 3u);  // t1 in 3 violation sets
  EXPECT_EQ(degrees.Degree(TupleRef{0, 1}), 1u);  // t2
  EXPECT_EQ(degrees.Degree(TupleRef{0, 2}), 0u);  // t3 consistent
  EXPECT_EQ(degrees.Degree(TupleRef{1, 0}), 1u);  // p1
  EXPECT_EQ(degrees.max_degree, 3u);
}

TEST(ViolationEngineTest, DegreeTableMatchesPerTupleCounts) {
  ClientBuyOptions gen;
  gen.num_clients = 3'000;
  gen.seed = 5;
  const GeneratedWorkload w = GenerateClientBuy(gen).value();
  const std::vector<ViolationSet> violations = Find(w.db, w.ics);
  ASSERT_FALSE(violations.empty());
  // Reference: count occurrences per tuple in a hash map.
  std::unordered_map<TupleRef, uint32_t, TupleRefHash> counts;
  uint32_t max_degree = 0;
  for (const ViolationSet& v : violations) {
    for (const TupleRef t : v.tuples) {
      max_degree = std::max(max_degree, ++counts[t]);
    }
  }
  const DegreeInfo degrees = ComputeDegrees(violations);
  EXPECT_EQ(degrees.max_degree, max_degree);
  EXPECT_EQ(degrees.per_tuple.size(), counts.size());
  EXPECT_TRUE(std::is_sorted(
      degrees.per_tuple.begin(), degrees.per_tuple.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
  for (size_t i = 1; i < degrees.per_tuple.size(); ++i) {
    EXPECT_NE(degrees.per_tuple[i - 1].first, degrees.per_tuple[i].first);
  }
  for (const auto& [t, count] : counts) EXPECT_EQ(degrees.Degree(t), count);
  // Tuples in no violation set, including ones past either end, read 0.
  for (uint32_t rel = 0; rel < w.db.relation_count(); ++rel) {
    for (uint32_t row = 0; row < w.db.table(rel).size(); ++row) {
      if (counts.count(TupleRef{rel, row}) == 0) {
        EXPECT_EQ(degrees.Degree(TupleRef{rel, row}), 0u);
      }
    }
  }
  EXPECT_EQ(degrees.Degree(TupleRef{0, 0xffffffffu}), 0u);
  EXPECT_EQ(degrees.Degree(TupleRef{7, 0}), 0u);
  EXPECT_EQ(ComputeDegrees({}).per_tuple.size(), 0u);
  EXPECT_EQ(ComputeDegrees({}).Degree(TupleRef{0, 0}), 0u);
}

TEST(ViolationEngineTest, ConsistentDatabaseHasNoViolations) {
  Database db(MakeClientBuySchema());
  ASSERT_TRUE(
      db.Insert("Client", {Value::Int(1), Value::Int(30), Value::Int(80)})
          .ok());
  ASSERT_TRUE(
      db.Insert("Buy", {Value::Int(1), Value::Int(1), Value::Int(99)}).ok());
  EXPECT_TRUE(Find(db, MakeClientBuyConstraints()).empty());

  auto bound = BindAll(db.schema(), MakeClientBuyConstraints());
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(ViolationEngine::Satisfies(db, *bound).value());
}

TEST(ViolationEngineTest, JoinAcrossRelations) {
  Database db(MakeClientBuySchema());
  // Minor with two expensive purchases and one cheap one.
  ASSERT_TRUE(
      db.Insert("Client", {Value::Int(1), Value::Int(15), Value::Int(10)})
          .ok());
  ASSERT_TRUE(
      db.Insert("Buy", {Value::Int(1), Value::Int(1), Value::Int(30)}).ok());
  ASSERT_TRUE(
      db.Insert("Buy", {Value::Int(1), Value::Int(2), Value::Int(10)}).ok());
  ASSERT_TRUE(
      db.Insert("Buy", {Value::Int(1), Value::Int(3), Value::Int(99)}).ok());
  // Adult with expensive purchases: no violation.
  ASSERT_TRUE(
      db.Insert("Client", {Value::Int(2), Value::Int(40), Value::Int(10)})
          .ok());
  ASSERT_TRUE(
      db.Insert("Buy", {Value::Int(2), Value::Int(1), Value::Int(80)}).ok());

  const std::vector<ViolationSet> violations =
      Find(db, MakeClientBuyConstraints());
  ASSERT_EQ(violations.size(), 2u);
  for (const ViolationSet& v : violations) {
    EXPECT_EQ(v.ic_index, 0u);
    EXPECT_EQ(v.tuples.size(), 2u);
  }
}

TEST(ViolationEngineTest, ExplicitEqualityJoin) {
  // Same query written with an explicit id = id2 built-in; the engine must
  // merge the variables and produce identical violation sets.
  Database db(MakeClientBuySchema());
  ASSERT_TRUE(
      db.Insert("Client", {Value::Int(1), Value::Int(15), Value::Int(10)})
          .ok());
  ASSERT_TRUE(
      db.Insert("Buy", {Value::Int(1), Value::Int(1), Value::Int(30)}).ok());
  const auto implicit = ParseConstraintSet(
      ":- Buy(id, i, p), Client(id, a, c), a < 18, p > 25\n");
  const auto explicit_eq = ParseConstraintSet(
      ":- Buy(id, i, p), Client(id2, a, c), id = id2, a < 18, p > 25\n");
  ASSERT_TRUE(implicit.ok());
  ASSERT_TRUE(explicit_eq.ok());
  const auto v1 = Find(db, *implicit);
  const auto v2 = Find(db, *explicit_eq);
  ASSERT_EQ(v1.size(), 1u);
  ASSERT_EQ(v2.size(), 1u);
  EXPECT_EQ(v1[0].tuples, v2[0].tuples);
}

TEST(ViolationEngineTest, SelfJoinWithDisequality) {
  // Example 5.4's ic1 = :- P(x, y), P(x, z), y != z over a keyless-style
  // schema (key = all attributes).
  const GeneratedWorkload w = MakeCardinalityExample();
  // The raw sets for ic1: {P(1,b), P(1,c)} found once (deduped across the
  // two symmetric assignments); ic2: {P(2,e), T(e,4)}.
  auto bound = BindAll(w.db.schema(), w.ics);
  ASSERT_TRUE(bound.ok());
  ViolationEngine engine(w.db, *bound);
  const auto violations = engine.FindViolations();
  ASSERT_TRUE(violations.ok());
  ASSERT_EQ(violations->size(), 2u);
  EXPECT_EQ((*violations)[0].ic_index, 0u);
  EXPECT_EQ((*violations)[0].tuples.size(), 2u);
  EXPECT_EQ((*violations)[1].ic_index, 1u);
  EXPECT_EQ((*violations)[1].tuples.size(), 2u);
}

TEST(ViolationEngineTest, MinimalityFiltersSelfJoinSupersets) {
  // :- R(k1, x), R(k2, y), x > 5, y > 5 — a single tuple with value > 5
  // violates via the assignment binding it to both atoms, so {t} is a
  // violation set and any {t, t'} superset must be filtered out.
  auto schema = std::make_shared<Schema>();
  ASSERT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "R",
                      {AttributeDef{"K", Type::kInt64, false, 1.0},
                       AttributeDef{"X", Type::kInt64, true, 1.0}},
                      {"K"}))
                  .ok());
  Database db(schema);
  ASSERT_TRUE(db.Insert("R", {Value::Int(1), Value::Int(10)}).ok());
  ASSERT_TRUE(db.Insert("R", {Value::Int(2), Value::Int(20)}).ok());
  ASSERT_TRUE(db.Insert("R", {Value::Int(3), Value::Int(1)}).ok());

  const auto ics =
      ParseConstraintSet(":- R(k1, x), R(k2, y), x > 5, y > 5\n");
  ASSERT_TRUE(ics.ok());
  const std::vector<ViolationSet> violations = Find(db, *ics);
  // Only the two singletons survive; {t0, t1} is non-minimal.
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0].tuples.size(), 1u);
  EXPECT_EQ(violations[1].tuples.size(), 1u);
}

TEST(ViolationEngineTest, ConstantArgumentsFilter) {
  Database db(MakeClientBuySchema());
  ASSERT_TRUE(
      db.Insert("Client", {Value::Int(1), Value::Int(15), Value::Int(10)})
          .ok());
  ASSERT_TRUE(
      db.Insert("Client", {Value::Int(2), Value::Int(15), Value::Int(10)})
          .ok());
  const auto ics = ParseConstraintSet(":- Client(1, a, c), a < 18\n");
  ASSERT_TRUE(ics.ok());
  const std::vector<ViolationSet> violations = Find(db, *ics);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].tuples[0], (TupleRef{0, 0}));
}

TEST(ViolationEngineTest, NullsNeverViolate) {
  Database db(MakeClientBuySchema());
  ASSERT_TRUE(
      db.Insert("Client", {Value::Int(1), Value(), Value::Int(99)}).ok());
  EXPECT_TRUE(Find(db, MakeClientBuyConstraints()).empty());
}

TEST(ViolationEngineTest, ResourceCap) {
  Database db(MakeClientBuySchema());
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(db.Insert("Client", {Value::Int(i), Value::Int(10),
                                     Value::Int(90)})
                    .ok());
  }
  auto bound = BindAll(db.schema(), MakeClientBuyConstraints());
  ASSERT_TRUE(bound.ok());
  ViolationEngineOptions options;
  options.max_violation_sets = 5;
  ViolationEngine engine(db, *bound, options);
  EXPECT_EQ(engine.FindViolations().status().code(),
            StatusCode::kResourceExhausted);
}

TEST(SetSatisfiesTest, DetectsViolationAndSatisfaction) {
  const GeneratedWorkload w = MakePaperPubExample();
  auto bound = BindAll(w.db.schema(), w.ics);
  ASSERT_TRUE(bound.ok());
  const BoundConstraint& ic1 = (*bound)[0];

  const Tuple& t1 = w.db.tuple(TupleRef{0, 0});
  // t1 = (B1, 1, 40, 0) violates ic1 (EF > 0, PRC < 50).
  EXPECT_FALSE(ViolationEngine::SetSatisfies(ic1, {{0, &t1}}));

  Tuple fixed = t1;
  fixed.set_value(1, Value::Int(0));  // EF := 0
  EXPECT_TRUE(ViolationEngine::SetSatisfies(ic1, {{0, &fixed}}));

  Tuple fixed_prc = t1;
  fixed_prc.set_value(2, Value::Int(50));  // PRC := 50
  EXPECT_TRUE(ViolationEngine::SetSatisfies(ic1, {{0, &fixed_prc}}));
}

TEST(SetSatisfiesTest, CrossRelationCheck) {
  const GeneratedWorkload w = MakePaperPubExample();
  auto bound = BindAll(w.db.schema(), w.ics);
  ASSERT_TRUE(bound.ok());
  const BoundConstraint& ic3 = (*bound)[2];

  const Tuple& t1 = w.db.tuple(TupleRef{0, 0});
  const Tuple& p1 = w.db.tuple(TupleRef{1, 0});
  EXPECT_FALSE(ViolationEngine::SetSatisfies(ic3, {{0, &t1}, {1, &p1}}));

  Tuple p1_fixed = p1;
  p1_fixed.set_value(2, Value::Int(40));  // Pag := 40
  EXPECT_TRUE(
      ViolationEngine::SetSatisfies(ic3, {{0, &t1}, {1, &p1_fixed}}));

  Tuple t1_fixed = t1;
  t1_fixed.set_value(2, Value::Int(70));  // PRC := 70
  EXPECT_TRUE(
      ViolationEngine::SetSatisfies(ic3, {{0, &t1_fixed}, {1, &p1}}));

  // An unrelated fix (EF := 0) does not solve the ic3 violation.
  Tuple t1_ef = t1;
  t1_ef.set_value(1, Value::Int(0));
  EXPECT_FALSE(ViolationEngine::SetSatisfies(ic3, {{0, &t1_ef}, {1, &p1}}));
}

TEST(ViolationEngineTest, OrderedIndexPushdownMatchesScan) {
  // With B+-tree indexes on the filtered columns the engine walks leaf
  // ranges instead of scanning; results must be identical.
  ClientBuyOptions options;
  options.num_clients = 300;
  options.seed = 21;
  auto workload = GenerateClientBuy(options);
  ASSERT_TRUE(workload.ok());
  auto bound = BindAll(workload->db.schema(), workload->ics);
  ASSERT_TRUE(bound.ok());

  ViolationEngine plain(workload->db, *bound);
  auto without_index = plain.FindViolations();
  ASSERT_TRUE(without_index.ok());

  // Index Client.A (a < 18 anchors ic1 and ic2) and Buy.P (p > 25).
  Table* client = workload->db.FindMutableTable("Client");
  Table* buy = workload->db.FindMutableTable("Buy");
  ASSERT_TRUE(client->CreateOrderedIndex(1).ok());
  ASSERT_TRUE(buy->CreateOrderedIndex(2).ok());

  ViolationEngine indexed(workload->db, *bound);
  auto with_index = indexed.FindViolations();
  ASSERT_TRUE(with_index.ok());
  EXPECT_EQ(*with_index, *without_index);
  EXPECT_FALSE(with_index->empty());
}

TEST(ViolationEngineTest, IndexDroppedAfterUpdateStillCorrect) {
  ClientBuyOptions options;
  options.num_clients = 50;
  options.seed = 22;
  auto workload = GenerateClientBuy(options);
  ASSERT_TRUE(workload.ok());
  Table* client = workload->db.FindMutableTable("Client");
  ASSERT_TRUE(client->CreateOrderedIndex(1).ok());
  ASSERT_NE(client->FindOrderedIndex(1), nullptr);
  // Updating the indexed attribute drops the (now stale) index...
  ASSERT_TRUE(client->UpdateValue(0, 1, Value::Int(30)).ok());
  EXPECT_EQ(client->FindOrderedIndex(1), nullptr);
  // ...and the engine silently falls back to scans.
  auto bound = BindAll(workload->db.schema(), workload->ics);
  ASSERT_TRUE(bound.ok());
  ViolationEngine engine(workload->db, *bound);
  EXPECT_TRUE(engine.FindViolations().ok());
}

}  // namespace
}  // namespace dbrepair
