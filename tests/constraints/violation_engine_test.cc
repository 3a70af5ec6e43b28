#include "constraints/violation_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "common/rng.h"
#include "constraints/parser.h"
#include "gen/client_buy.h"
#include "gen/paper_example.h"
#include "violation_oracle.h"

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

// ---- Edge cases of the flat, sorted violation-set dedupe. ----

// R(K, X): K hard, X flexible; S(K, Z) likewise.
std::shared_ptr<const Schema> DedupeSchema() {
  auto schema = std::make_shared<Schema>();
  EXPECT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "R",
                      {AttributeDef{"K", Type::kInt64, false, 1.0},
                       AttributeDef{"X", Type::kInt64, true, 1.0}},
                      {"K"}))
                  .ok());
  EXPECT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "S",
                      {AttributeDef{"K", Type::kInt64, false, 1.0},
                       AttributeDef{"Z", Type::kInt64, true, 1.0}},
                      {"K"}))
                  .ok());
  return schema;
}

Database DedupeDb(const std::vector<int64_t>& r_values,
                  const std::vector<int64_t>& s_values = {}) {
  Database db(DedupeSchema());
  for (size_t i = 0; i < r_values.size(); ++i) {
    EXPECT_TRUE(db.Insert("R", {Value::Int(static_cast<int64_t>(i)),
                                Value::Int(r_values[i])})
                    .ok());
  }
  for (size_t i = 0; i < s_values.size(); ++i) {
    EXPECT_TRUE(db.Insert("S", {Value::Int(static_cast<int64_t>(i)),
                                Value::Int(s_values[i])})
                    .ok());
  }
  return db;
}

std::vector<BoundConstraint> BindText(const Database& db,
                                      const std::string& text) {
  auto parsed = ParseConstraintSet(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto bound = BindAll(db.schema(), *parsed);
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  return std::move(bound).value();
}

// The engine's output at 1 and 4 threads, each checked against the oracle.
void ExpectMatchesOracle(const Database& db,
                         const std::vector<BoundConstraint>& ics) {
  const std::vector<ViolationSet> expected = OracleViolations(db, ics);
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    ViolationEngineOptions options;
    options.num_threads = threads;
    ViolationEngine engine(db, ics, options);
    auto found = engine.FindViolations();
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    EXPECT_EQ(*found, expected) << threads << " threads";
  }
}

TEST(ViolationDedupeTest, SymmetricSelfJoinCapCountsUniqueSets) {
  // Ten rows share X = 1: 90 ordered assignments, 45 unordered pairs. The
  // raw buffer passes a cap of 45 mid-scan, so the cap is decided by a
  // compaction, and must count the 45 distinct sets, not the assignments.
  const Database db = DedupeDb({1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 3});
  const auto ics = BindText(db, ":- R(k1, x), R(k2, y), x = y, k1 != k2\n");
  const std::vector<ViolationSet> expected = OracleViolations(db, ics);
  ASSERT_EQ(expected.size(), 45u);
  ExpectMatchesOracle(db, ics);
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    ViolationEngineOptions options;
    options.num_threads = threads;
    options.max_violation_sets = expected.size();
    ViolationEngine at_cap(db, ics, options);
    auto found = at_cap.FindViolations();
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    EXPECT_EQ(*found, expected);

    options.max_violation_sets = expected.size() - 1;
    ViolationEngine over_cap(db, ics, options);
    EXPECT_EQ(over_cap.FindViolations().status().code(),
              StatusCode::kResourceExhausted)
        << threads << " threads";
  }
}

TEST(ViolationDedupeTest, MixedLengthSetsOfOneConstraint) {
  // A row with X = 5 fills both atoms alone ({t}); a pair (X >= 5, X <= 5)
  // of other rows is a minimal 2-set unless it contains a 5-row.
  const Database db = DedupeDb({7, 5, 3, 9, 5, 1, 6});
  const auto ics = BindText(db, ":- R(k1, x), R(k2, y), x >= 5, y <= 5\n");
  const std::vector<ViolationSet> expected = OracleViolations(db, ics);
  size_t singles = 0;
  for (const ViolationSet& v : expected) singles += v.tuples.size() == 1;
  ASSERT_EQ(singles, 2u);
  ASSERT_GT(expected.size(), singles);
  ExpectMatchesOracle(db, ics);
}

TEST(ViolationDedupeTest, SetsContainingTheZeroTupleRef) {
  // R0[0] packs to 0, the value of the record padding. As a singleton
  // ({R0[0]}), inside minimal pairs, and as the prefix of filtered
  // supersets it must still sort, dedupe and filter like any other tuple.
  for (const int64_t first : {int64_t{5}, int64_t{7}, int64_t{1}}) {
    const Database db = DedupeDb({first, 3, 8, 5});
    const auto ics = BindText(db,
                              ":- R(k1, x), R(k2, y), x >= 5, y <= 5\n"
                              ":- R(k, x), x > 4\n");
    bool has_zero = false;
    for (const ViolationSet& v : OracleViolations(db, ics)) {
      has_zero = has_zero || v.Contains(TupleRef{0, 0});
    }
    ASSERT_TRUE(has_zero) << first;
    ExpectMatchesOracle(db, ics);
  }
}

TEST(ViolationDedupeTest, ThreeAtomsOneTupleFillingTwo) {
  // A 5-row fills both R atoms, so {r, s} is a violation set and every
  // {r, r', s} superset of it is not; pairs of other rows stay 3-sets.
  const Database db = DedupeDb({5, 8, 2, 6, 4}, {1, 0, 3});
  const auto ics = BindText(
      db, ":- R(k1, x), R(k2, y), S(k3, z), x >= 5, y <= 5, z > 0\n");
  const std::vector<ViolationSet> expected = OracleViolations(db, ics);
  size_t twos = 0;
  size_t threes = 0;
  for (const ViolationSet& v : expected) {
    twos += v.tuples.size() == 2;
    threes += v.tuples.size() == 3;
  }
  ASSERT_GT(twos, 0u);
  ASSERT_GT(threes, 0u);
  ExpectMatchesOracle(db, ics);
}

TEST(ViolationDedupeTest, ConstraintsOutOfIcIndexOrderStillSortOutput) {
  const Database db = DedupeDb({7, 5, 3, 9}, {2, 8});
  std::vector<BoundConstraint> ics = BindText(db,
                                              ":- R(k, x), x > 4\n"
                                              ":- S(k, z), z > 1\n"
                                              ":- R(k, x), S(k, z), x > 2\n");
  std::reverse(ics.begin(), ics.end());
  ASSERT_EQ(ics.front().ic_index, 2u);
  ExpectMatchesOracle(db, ics);
}

TEST(SetSatisfiesTest, DetectsViolationAndSatisfaction) {
  const GeneratedWorkload w = MakePaperPubExample();
  auto bound = BindAll(w.db.schema(), w.ics);
  ASSERT_TRUE(bound.ok());
  const BoundConstraint& ic1 = (*bound)[0];

  const TupleView t1 = w.db.tuple(TupleRef{0, 0});
  // t1 = (B1, 1, 40, 0) violates ic1 (EF > 0, PRC < 50).
  EXPECT_FALSE(ViolationEngine::SetSatisfies(ic1, {{0, t1}}));

  Tuple fixed(t1.values());
  fixed.set_value(1, Value::Int(0));  // EF := 0
  EXPECT_TRUE(ViolationEngine::SetSatisfies(ic1, {{0, fixed.view()}}));

  Tuple fixed_prc(t1.values());
  fixed_prc.set_value(2, Value::Int(50));  // PRC := 50
  EXPECT_TRUE(ViolationEngine::SetSatisfies(ic1, {{0, fixed_prc.view()}}));
}

TEST(SetSatisfiesTest, CrossRelationCheck) {
  const GeneratedWorkload w = MakePaperPubExample();
  auto bound = BindAll(w.db.schema(), w.ics);
  ASSERT_TRUE(bound.ok());
  const BoundConstraint& ic3 = (*bound)[2];

  const TupleView t1 = w.db.tuple(TupleRef{0, 0});
  const TupleView p1 = w.db.tuple(TupleRef{1, 0});
  EXPECT_FALSE(ViolationEngine::SetSatisfies(ic3, {{0, t1}, {1, p1}}));

  Tuple p1_fixed(p1.values());
  p1_fixed.set_value(2, Value::Int(40));  // Pag := 40
  EXPECT_TRUE(
      ViolationEngine::SetSatisfies(ic3, {{0, t1}, {1, p1_fixed.view()}}));

  Tuple t1_fixed(t1.values());
  t1_fixed.set_value(2, Value::Int(70));  // PRC := 70
  EXPECT_TRUE(
      ViolationEngine::SetSatisfies(ic3, {{0, t1_fixed.view()}, {1, p1}}));

  // An unrelated fix (EF := 0) does not solve the ic3 violation.
  Tuple t1_ef(t1.values());
  t1_ef.set_value(1, Value::Int(0));
  EXPECT_FALSE(
      ViolationEngine::SetSatisfies(ic3, {{0, t1_ef.view()}, {1, p1}}));
}

// The Algorithm-4 overlay: SetSatisfies with one overridden cell must equal
// SetSatisfies on the materialised tuple, for any cell value — NULL, INT,
// DOUBLE, STRING — on join columns, constant positions and built-in
// operands alike, with one scratch reused across every call.
TEST(SetSatisfiesTest, OverrideEqualsMaterialisedTuple) {
  auto schema = std::make_shared<Schema>();
  for (const char* name : {"R", "T"}) {
    ASSERT_TRUE(schema
                    ->AddRelation(RelationSchema(
                        name,
                        {AttributeDef{"K", Type::kInt64, false, 1.0},
                         AttributeDef{"A", Type::kInt64, true, 1.0},
                         AttributeDef{"D", Type::kDouble, false, 1.0},
                         AttributeDef{"S", Type::kString, false, 1.0}},
                        {"K"}))
                    .ok());
  }
  const auto parsed = ParseConstraintSet(
      ":- R(k, a, d, s), T(k, b, e, 'x'), a > 1, e < 2.5\n"
      ":- R(k, a, d, s), R(k2, a2, d2, s), a != a2, d >= 1.0\n"
      ":- R(k, 2, d, s), T(k2, b, e, s2), s = s2, b != k\n"
      ":- T(k, b, e, s), b < 2, e > 0.5\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto bound = BindAll(*schema, *parsed);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();

  Rng rng(2024);
  const auto random_value = [&](int column) {
    // Mostly the column's own type (keys from a small domain, so joins
    // match), sometimes NULL or a foreign type.
    int kind = static_cast<int>(rng.UniformInRange(0, 15));
    if (kind >= 3) kind = column + 1;
    switch (kind) {
      case 0:
        return Value();
      case 1:
        return Value::Int(rng.UniformInRange(0, 2));
      case 2:
        return Value::Int(rng.UniformInRange(0, 3));
      case 3:
        return Value::Double(static_cast<double>(rng.UniformInRange(0, 6)) /
                             2.0);
      default:
        return Value::String(rng.Bernoulli(0.8) ? "x" : "q");
    }
  };
  std::vector<Tuple> pool;
  for (int i = 0; i < 24; ++i) {
    std::vector<Value> cells;
    for (int c = 0; c < 4; ++c) cells.push_back(random_value(c));
    pool.emplace_back(std::move(cells));
  }

  ViolationEngine::SatisfiesScratch scratch;
  size_t checks = 0;
  size_t satisfied = 0;
  for (int round = 0; round < 4000; ++round) {
    const BoundConstraint& ic =
        (*bound)[static_cast<size_t>(rng.UniformInRange(0, 3))];
    // One member per atom, of that atom's relation; a self-join sometimes
    // gets one tuple for both atoms.
    std::vector<std::pair<uint32_t, TupleView>> members;
    for (const BoundAtom& atom : ic.atoms) {
      if (!members.empty() && members.back().first == atom.relation_index &&
          rng.Bernoulli(0.3)) {
        continue;
      }
      members.emplace_back(
          atom.relation_index,
          pool[static_cast<size_t>(rng.UniformInRange(0, 23))].view());
    }
    const auto n = static_cast<int64_t>(members.size());
    const auto j = static_cast<size_t>(rng.UniformInRange(0, n - 1));
    const auto attr = static_cast<uint32_t>(rng.UniformInRange(0, 3));
    // Half the time a value the cell's type allows, else anything.
    const Value value = random_value(
        rng.Bernoulli(0.5) ? static_cast<int>(attr)
                           : static_cast<int>(rng.UniformInRange(0, 3)));

    Tuple materialised(members[j].second.values());
    materialised.set_value(attr, value);
    std::vector<std::pair<uint32_t, TupleView>> replaced = members;
    replaced[j].second = materialised.view();

    const bool expected = ViolationEngine::SetSatisfies(ic, replaced);
    EXPECT_EQ(ViolationEngine::SetSatisfies(ic, members, {j, attr, &value},
                                            &scratch),
              expected)
        << ic.name << " round " << round;
    ++checks;
    satisfied += expected;
  }
  // Both outcomes occur often enough for the comparison to mean something.
  EXPECT_GT(satisfied, checks / 10);
  EXPECT_LT(satisfied, checks - checks / 10);
}

TEST(ViolationEngineTest, MatchesOracleAfterUpdateValue) {
  // Repairs update cells in place; an engine built afterwards reads the
  // new values.
  ClientBuyOptions options;
  options.num_clients = 50;
  options.seed = 22;
  auto workload = GenerateClientBuy(options);
  ASSERT_TRUE(workload.ok());
  Table* client = workload->db.FindMutableTable("Client");
  ASSERT_TRUE(client->UpdateValue(0, 1, Value::Int(30)).ok());
  ASSERT_TRUE(client->UpdateValue(1, 1, Value::Int(5)).ok());
  auto bound = BindAll(workload->db.schema(), workload->ics);
  ASSERT_TRUE(bound.ok());
  ExpectMatchesOracle(workload->db, *bound);
}

}  // namespace
}  // namespace dbrepair
