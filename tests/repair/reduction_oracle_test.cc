// Validates the paper's reduction end to end (Definition 3.1 + the theorem
// that repairs are assembled from local fixes): on small random instances,
// the optimal set-cover weight must equal the minimum Delta(D, D') over the
// *entire* space of fix combinations, found by brute force.

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "constraints/parser.h"
#include "constraints/violation_engine.h"
#include "gen/client_buy.h"
#include "repair/instance_builder.h"
#include "repair/api.h"
#include "repair/setcover/solvers.h"

namespace dbrepair {
namespace {

// Enumerates every combination of candidate fixes (per tuple and attribute:
// keep the original value or adopt one fix value), materialises each
// candidate instance, and returns the minimal weighted distance among the
// consistent ones.
double BruteForceOptimalDistance(const Database& db,
                                 const std::vector<BoundConstraint>& ics,
                                 const RepairProblem& problem,
                                 size_t* candidates_checked) {
  const DistanceFunction distance(DistanceKind::kL1);

  // (tuple, attribute) -> alternative values.
  std::map<std::pair<TupleRef, uint32_t>, std::vector<int64_t>> options;
  for (const CandidateFix& fix : problem.fixes) {
    options[{fix.tuple, fix.attribute}].push_back(fix.new_value);
  }
  std::vector<std::pair<std::pair<TupleRef, uint32_t>,
                        std::vector<int64_t>>>
      slots(options.begin(), options.end());

  double best = std::numeric_limits<double>::infinity();
  Database working = db.Clone();

  auto recurse = [&](auto&& self, size_t slot) -> void {
    if (slot == slots.size()) {
      ++*candidates_checked;
      auto consistent = ViolationEngine::Satisfies(working, ics);
      ASSERT_TRUE(consistent.ok());
      if (!consistent.value()) return;
      auto delta = distance.DatabaseDistance(db, working);
      ASSERT_TRUE(delta.ok());
      best = std::min(best, delta.value());
      return;
    }
    const auto& [key, values] = slots[slot];
    const auto& [tuple, attribute] = key;
    const Value original = working.tuple(tuple).value(attribute);
    self(self, slot + 1);  // keep the original value
    for (const int64_t v : values) {
      ASSERT_TRUE(working.mutable_table(tuple.relation)
                      .UpdateValue(tuple.row, attribute, Value::Int(v))
                      .ok());
      self(self, slot + 1);
    }
    ASSERT_TRUE(working.mutable_table(tuple.relation)
                    .UpdateValue(tuple.row, attribute, original)
                    .ok());
  };
  recurse(recurse, 0);
  return best;
}

class ReductionOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReductionOracleTest, ExactCoverWeightEqualsOptimalRepairDistance) {
  // Tiny instances keep the brute-force space (product of per-attribute
  // choices) enumerable.
  ClientBuyOptions gen;
  gen.num_clients = 6;
  gen.buys_per_client = 1;
  gen.inconsistency_ratio = 0.5;
  gen.seed = GetParam();
  auto workload = GenerateClientBuy(gen);
  ASSERT_TRUE(workload.ok());

  auto bound = BindAll(workload->db.schema(), workload->ics);
  ASSERT_TRUE(bound.ok());
  auto problem =
      BuildRepairProblem(workload->db, *bound, DistanceFunction());
  ASSERT_TRUE(problem.ok());
  if (problem->fixes.size() > 14) GTEST_SKIP() << "combo space too large";

  size_t candidates = 0;
  const double brute = BruteForceOptimalDistance(workload->db, *bound,
                                                 *problem, &candidates);
  ASSERT_GT(candidates, 0u);

  if (problem->violations.empty()) {
    EXPECT_DOUBLE_EQ(brute, 0.0);
    return;
  }
  auto exact = ExactSetCover(CsrSetCoverInstance::Freeze(problem->instance));
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(exact->weight, brute, 1e-9)
      << "the MWSCP optimum must equal the optimal repair distance";

  // And the end-to-end exact pipeline realises exactly that distance.
  RepairOptions options;
  options.solver = SolverKind::kExact;
  auto outcome = RepairDatabase(workload->db, workload->ics, options);
  ASSERT_TRUE(outcome.ok());
  EXPECT_NEAR(outcome->stats.distance, brute, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReductionOracleTest,
                         ::testing::Range<uint64_t>(1, 21));

TEST(RepairIdempotenceTest, RepairingARepairChangesNothing) {
  for (const uint64_t seed : {1ull, 2ull, 3ull}) {
    ClientBuyOptions gen;
    gen.num_clients = 60;
    gen.seed = seed;
    auto workload = GenerateClientBuy(gen);
    ASSERT_TRUE(workload.ok());
    auto first = RepairDatabase(workload->db, workload->ics);
    ASSERT_TRUE(first.ok());
    auto second = RepairDatabase(first->repaired, workload->ics);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second->stats.num_violations, 0u);
    EXPECT_EQ(second->stats.num_updates, 0u);
    EXPECT_DOUBLE_EQ(second->stats.distance, 0.0);
  }
}

TEST(SolverDistanceGridTest, AllCombinationsProduceConsistentRepairs) {
  ClientBuyOptions gen;
  gen.num_clients = 40;
  gen.seed = 9;
  auto workload = GenerateClientBuy(gen);
  ASSERT_TRUE(workload.ok());
  auto bound = BindAll(workload->db.schema(), workload->ics);
  ASSERT_TRUE(bound.ok());

  for (const DistanceKind distance : {DistanceKind::kL1, DistanceKind::kL2}) {
    for (const SolverKind solver :
         {SolverKind::kGreedy, SolverKind::kModifiedGreedy,
          SolverKind::kLazyGreedy, SolverKind::kLayer,
          SolverKind::kModifiedLayer, SolverKind::kExact}) {
      for (const bool prune : {false, true}) {
        RepairOptions options;
        options.solver = solver;
        options.distance = distance;
        options.prune_cover = prune;
        auto outcome = RepairDatabase(workload->db, *bound, options);
        ASSERT_TRUE(outcome.ok())
            << SolverKindName(solver) << " prune=" << prune;
        auto consistent =
            ViolationEngine::Satisfies(outcome->repaired, *bound);
        ASSERT_TRUE(consistent.ok());
        EXPECT_TRUE(consistent.value())
            << SolverKindName(solver) << " prune=" << prune;
      }
    }
  }
}

}  // namespace
}  // namespace dbrepair
