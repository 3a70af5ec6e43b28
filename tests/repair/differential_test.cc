// Randomized differential harness for the parallel repair pipeline.
//
// Every case builds the same repair problem serially (num_threads = 1) and
// with 2, 4, and 8 worker threads, and requires the results to be
// *identical* — violation lists, fix ids, solved-set order, the MWSCP
// instance (bit-equal weights), the applied updates, and the realised
// distance. The parallel phases shard their input and merge per-shard
// buffers in shard order precisely so this holds; any scheduling leak into
// the output fails here.
//
// The same cases double as a solver-validity sweep: every solver must
// return a valid cover, the greedy family must agree with itself exactly,
// and where the exact optimum is tractable the approximation factors of the
// paper (H_k for greedy, f for layer) must hold.
//
// Case count: 64 seeds x 3 random single-relation shapes (192) + 8 seeds of
// Client/Buy + 8 seeds of Census = 208 randomized cases.
//
// A second oracle checks the violation scan: on the same workloads — plus
// 32 seeds x 3 mixed-type shapes with string join keys, DOUBLE columns and
// injected NULLs — the built problem's violation list must equal the
// brute-force oracle's (violation_oracle.h) at 1 and 4 threads, and the
// repaired database must hold no violation the oracle can find. (These
// cases keep their historical `ColumnarEqualsRow` names.)

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "constraints/parser.h"
#include "common/rng.h"
#include "gen/census.h"
#include "gen/client_buy.h"
#include "repair/instance_builder.h"
#include "repair/api.h"
#include "repair/setcover/solvers.h"
#include "setcover_testing.h"
#include "violation_oracle.h"

namespace dbrepair {
namespace {

constexpr size_t kThreadCounts[] = {2, 4, 8};

void ExpectSameProblem(const RepairProblem& serial,
                       const RepairProblem& parallel, size_t threads) {
  ASSERT_EQ(serial.violations.size(), parallel.violations.size())
      << "threads=" << threads;
  for (size_t i = 0; i < serial.violations.size(); ++i) {
    ASSERT_TRUE(serial.violations[i] == parallel.violations[i])
        << "violation " << i << " differs at threads=" << threads << ": "
        << serial.violations[i].ToString() << " vs "
        << parallel.violations[i].ToString();
  }
  ASSERT_EQ(serial.fixes.size(), parallel.fixes.size())
      << "threads=" << threads;
  for (size_t i = 0; i < serial.fixes.size(); ++i) {
    const CandidateFix& a = serial.fixes[i];
    const CandidateFix& b = parallel.fixes[i];
    ASSERT_EQ(a.tuple.Packed(), b.tuple.Packed()) << "fix " << i;
    ASSERT_EQ(a.attribute, b.attribute) << "fix " << i;
    ASSERT_EQ(a.old_value, b.old_value) << "fix " << i;
    ASSERT_EQ(a.new_value, b.new_value) << "fix " << i;
    ASSERT_EQ(a.weight, b.weight) << "fix " << i;  // bit-equal, not NEAR
    ASSERT_EQ(a.solved, b.solved) << "fix " << i;
  }
  ASSERT_EQ(serial.instance.num_elements, parallel.instance.num_elements);
  ASSERT_EQ(serial.instance.weights, parallel.instance.weights);
  ASSERT_EQ(serial.instance.sets, parallel.instance.sets);
}

void ExpectSameRepair(const RepairOutcome& serial,
                      const RepairOutcome& parallel, size_t threads) {
  ASSERT_EQ(serial.updates.size(), parallel.updates.size())
      << "threads=" << threads;
  for (size_t i = 0; i < serial.updates.size(); ++i) {
    const AppliedUpdate& a = serial.updates[i];
    const AppliedUpdate& b = parallel.updates[i];
    ASSERT_EQ(a.tuple.Packed(), b.tuple.Packed()) << "update " << i;
    ASSERT_EQ(a.attribute, b.attribute) << "update " << i;
    ASSERT_EQ(a.old_value, b.old_value) << "update " << i;
    ASSERT_EQ(a.new_value, b.new_value) << "update " << i;
  }
  ASSERT_EQ(serial.stats.distance, parallel.stats.distance);  // bit-equal
  ASSERT_EQ(serial.stats.cover_weight, parallel.stats.cover_weight);
  // Byte-identical repaired instances, tuple by tuple.
  for (size_t r = 0; r < serial.repaired.schema().relations().size(); ++r) {
    const Table& at = serial.repaired.table(r);
    const Table& bt = parallel.repaired.table(r);
    ASSERT_EQ(at.size(), bt.size());
    for (size_t row = 0; row < at.size(); ++row) {
      ASSERT_TRUE(at.row(row) == bt.row(row))
          << "relation " << r << " row " << row << " threads=" << threads;
    }
  }
}

// Serial-vs-parallel equality of the built problem and of the end-to-end
// repair, for one workload.
void RunDifferentialCase(const Database& db,
                         const std::vector<DenialConstraint>& ics) {
  auto bound = BindAll(db.schema(), ics);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  const DistanceFunction distance(DistanceKind::kL1);

  BuildOptions serial_build;
  serial_build.num_threads = 1;
  auto serial = BuildRepairProblem(db, *bound, distance, serial_build);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (const size_t threads : kThreadCounts) {
    BuildOptions parallel_build;
    parallel_build.num_threads = threads;
    auto parallel = BuildRepairProblem(db, *bound, distance, parallel_build);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectSameProblem(*serial, *parallel, threads);
  }

  RepairOptions serial_repair;
  serial_repair.num_threads = 1;
  auto serial_outcome = RepairDatabase(db, ics, serial_repair);
  ASSERT_TRUE(serial_outcome.ok()) << serial_outcome.status().ToString();
  for (const size_t threads : kThreadCounts) {
    RepairOptions parallel_repair;
    parallel_repair.num_threads = threads;
    auto parallel_outcome = RepairDatabase(db, ics, parallel_repair);
    ASSERT_TRUE(parallel_outcome.ok())
        << parallel_outcome.status().ToString();
    ExpectSameRepair(*serial_outcome, *parallel_outcome, threads);
  }
}

// Scan-vs-oracle check: the violation list of the built problem equals the
// brute-force enumeration at every tested thread count, and the repair it
// leads to is consistent by the oracle's count as well as the engine's.
void RunColumnarDifferentialCase(const Database& db,
                                 const std::vector<DenialConstraint>& ics) {
  auto bound = BindAll(db.schema(), ics);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  const std::vector<ViolationSet> expected = OracleViolations(db, *bound);
  const DistanceFunction distance(DistanceKind::kL1);
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    BuildOptions build;
    build.num_threads = threads;
    auto problem = BuildRepairProblem(db, *bound, distance, build);
    ASSERT_TRUE(problem.ok()) << problem.status().ToString();
    ASSERT_EQ(problem->violations.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_TRUE(problem->violations[i] == expected[i])
          << "violation " << i << ": engine "
          << problem->violations[i].ToString() << ", oracle "
          << expected[i].ToString();
    }

    RepairOptions repair;
    repair.num_threads = threads;
    auto outcome = RepairDatabase(db, ics, repair);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_TRUE(OracleViolations(outcome->repaired, *bound).empty());
  }
}

double Harmonic(size_t k) {
  double h = 0;
  for (size_t i = 1; i <= k; ++i) h += 1.0 / static_cast<double>(i);
  return h;
}

// Every solver returns a valid cover; the greedy family agrees with itself
// exactly; approximation factors hold against the exact optimum when the
// instance is small enough to solve exactly.
void RunSolverValidityCase(const Database& db,
                           const std::vector<DenialConstraint>& ics) {
  auto bound = BindAll(db.schema(), ics);
  ASSERT_TRUE(bound.ok());
  auto problem =
      BuildRepairProblem(db, *bound, DistanceFunction(DistanceKind::kL1));
  ASSERT_TRUE(problem.ok()) << problem.status().ToString();
  if (problem->instance.sets.empty()) return;  // consistent instance
  const CsrSetCoverInstance instance =
      CsrSetCoverInstance::Freeze(problem->instance);
  ASSERT_TRUE(instance.Validate().ok());

  auto greedy = SolveSetCover(SolverKind::kGreedy, instance);
  auto lazy = SolveSetCover(SolverKind::kLazyGreedy, instance);
  auto modified = SolveSetCover(SolverKind::kModifiedGreedy, instance);
  auto layer = SolveSetCover(SolverKind::kLayer, instance);
  auto modified_layer = SolveSetCover(SolverKind::kModifiedLayer, instance);
  for (const auto* solution :
       {&greedy, &lazy, &modified, &layer, &modified_layer}) {
    ASSERT_TRUE(solution->ok()) << solution->status().ToString();
    EXPECT_TRUE(IsCover(instance, (*solution)->chosen));
    EXPECT_NEAR((*solution)->weight,
                SelectionWeight(instance, (*solution)->chosen), 1e-9);
  }
  // The three greedy implementations are the same algorithm.
  EXPECT_EQ(greedy->chosen, lazy->chosen);
  EXPECT_EQ(greedy->chosen, modified->chosen);
  // The two layer implementations agree up to floating-point drift.
  EXPECT_NEAR(layer->weight, modified_layer->weight,
              1e-6 * (1.0 + layer->weight));

  if (instance.num_sets() > 28) return;  // exact optimum intractable
  auto exact = SolveSetCover(SolverKind::kExact, instance);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_TRUE(IsCover(instance, exact->chosen));
  const double opt = exact->weight;
  size_t max_set_size = 0;
  for (uint32_t s = 0; s < instance.num_sets(); ++s) {
    max_set_size = std::max<size_t>(max_set_size, instance.set_size(s));
  }
  const double h_k = Harmonic(max_set_size);
  const double f = static_cast<double>(instance.max_frequency());
  EXPECT_GE(greedy->weight, opt - 1e-9);
  EXPECT_LE(greedy->weight, h_k * opt + 1e-9) << "greedy beyond H_k * OPT";
  EXPECT_GE(layer->weight, opt - 1e-9);
  EXPECT_LE(layer->weight, f * opt + 1e-9) << "layer beyond f * OPT";
}

// A random workload over R(K, G, A, B) and S(K2, G2, C): K/K2 are keys, G a
// hard join attribute, A is flexible and only ever lower-bounded (a < X),
// B and C flexible and only upper-bounded — so every generated IC set is
// local by construction. `shape` picks the constraint template. The join
// shape spans two relations (like the paper's Client/Buy ic1) rather than
// self-joining R: when one tuple can fill every atom, singleton violation
// sets mask their pair supersets from the minimality filter, and covering
// only minimal sets no longer implies consistency (see DESIGN.md).
void MakeRandomWorkload(uint64_t seed, int shape, Database* out_db,
                        std::vector<DenialConstraint>* out_ics) {
  Rng rng(seed * 3 + static_cast<uint64_t>(shape));
  auto schema = std::make_shared<Schema>();
  ASSERT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "R",
                      {AttributeDef{"K", Type::kInt64, false, 1.0},
                       AttributeDef{"G", Type::kInt64, false, 1.0},
                       AttributeDef{"A", Type::kInt64, true, 1.0},
                       AttributeDef{"B", Type::kInt64, true, 2.0}},
                      {"K"}))
                  .ok());
  ASSERT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "S",
                      {AttributeDef{"K2", Type::kInt64, false, 1.0},
                       AttributeDef{"G2", Type::kInt64, false, 1.0},
                       AttributeDef{"C", Type::kInt64, true, 1.0}},
                      {"K2"}))
                  .ok());
  Database db(schema);
  const size_t rows = 40 + rng.Uniform(31);
  for (size_t i = 0; i < rows; ++i) {
    ASSERT_TRUE(db.Insert("R", {Value::Int(static_cast<int64_t>(i)),
                                Value::Int(rng.UniformInRange(0, 7)),
                                Value::Int(rng.UniformInRange(0, 100)),
                                Value::Int(rng.UniformInRange(0, 100))})
                    .ok());
  }
  const size_t s_rows = 20 + rng.Uniform(21);
  for (size_t i = 0; i < s_rows; ++i) {
    ASSERT_TRUE(db.Insert("S", {Value::Int(static_cast<int64_t>(i)),
                                Value::Int(rng.UniformInRange(0, 7)),
                                Value::Int(rng.UniformInRange(0, 100))})
                    .ok());
  }
  const std::string x = std::to_string(rng.UniformInRange(20, 50));
  const std::string y = std::to_string(rng.UniformInRange(50, 80));
  std::string text;
  switch (shape) {
    case 0:  // two independent single-tuple constraints
      text = ":- R(k, g, a, b), a < " + x + "\n:- R(k, g, a, b), b > " + y +
             "\n";
      break;
    case 1:  // one conjunctive single-tuple constraint
      text = ":- R(k, g, a, b), a < " + x + ", b > " + y + "\n";
      break;
    default:  // two-relation join on the hard attribute G
      text = ":- R(k, g, a, b), S(k2, g, c), a < " + x + ", c > " + y + "\n";
      break;
  }
  auto ics = ParseConstraintSet(text);
  ASSERT_TRUE(ics.ok()) << ics.status().ToString();
  *out_db = std::move(db);
  *out_ics = std::move(ics).value();
}

// A workload exercising the columnar layer's non-int machinery: U and V
// join on a dictionary-coded string attribute SG, D and C are DOUBLE
// columns holding a mix of int and double Values (both legal per
// Table::CheckTypes), and a small fraction of SG cells are NULL — which
// marks the column unclean and moves the classes that read it onto the
// engine's Value-backed column kind, so that kind is tested too. Only A is
// flexible (flexible attributes must be INT — repairs take values in Z),
// so every violation is repaired through A; per the MakeRandomWorkload
// locality convention A is only ever lower-bounded.
void MakeMixedTypeWorkload(uint64_t seed, int shape, Database* out_db,
                           std::vector<DenialConstraint>* out_ics) {
  Rng rng(seed * 7 + static_cast<uint64_t>(shape));
  auto schema = std::make_shared<Schema>();
  ASSERT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "U",
                      {AttributeDef{"K", Type::kInt64, false, 1.0},
                       AttributeDef{"SG", Type::kString, false, 1.0},
                       AttributeDef{"A", Type::kInt64, true, 1.0},
                       AttributeDef{"D", Type::kDouble, false, 2.0}},
                      {"K"}))
                  .ok());
  ASSERT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "V",
                      {AttributeDef{"K2", Type::kInt64, false, 1.0},
                       AttributeDef{"SG2", Type::kString, false, 1.0},
                       AttributeDef{"C", Type::kDouble, false, 1.0}},
                      {"K2"}))
                  .ok());
  Database db(schema);
  const char* pool[] = {"s0", "s1", "s2", "hot", "s3", "s4"};
  // NULLs only in shape 2's variant with seed parity, so both the clean
  // (typed codes) and unclean (Value-backed) kinds get coverage.
  const bool inject_nulls = shape == 2 && seed % 2 == 0;
  auto make_sg = [&]() {
    if (inject_nulls && rng.Uniform(10) == 0) return Value();
    return Value::String(pool[rng.Uniform(6)]);
  };
  auto make_double = [&](int lo, int hi) {
    const int v = static_cast<int>(rng.UniformInRange(lo * 2, hi * 2));
    // Half the cells are int Values living in a DOUBLE column; one cell is
    // a negative zero (the snapshot normalises it, equality must not care).
    if (v == lo * 2 && rng.Uniform(4) == 0) return Value::Double(-0.0);
    if (rng.Uniform(2) == 0) return Value::Int(v / 2);
    return Value::Double(v / 2.0);
  };
  const size_t rows = 40 + rng.Uniform(31);
  for (size_t i = 0; i < rows; ++i) {
    ASSERT_TRUE(db.Insert("U", {Value::Int(static_cast<int64_t>(i)),
                                make_sg(),
                                Value::Int(rng.UniformInRange(0, 100)),
                                make_double(0, 100)})
                    .ok());
  }
  const size_t v_rows = 20 + rng.Uniform(21);
  for (size_t i = 0; i < v_rows; ++i) {
    ASSERT_TRUE(db.Insert("V", {Value::Int(static_cast<int64_t>(i)),
                                make_sg(), make_double(0, 100)})
                    .ok());
  }
  const std::string x = std::to_string(rng.UniformInRange(20, 50));
  const std::string y = std::to_string(rng.UniformInRange(50, 80));
  std::string text;
  switch (shape) {
    case 0:  // single-tuple, fractional double bound on a DOUBLE column
      text = ":- U(k, sg, a, d), a < " + x + ", d > " + y + ".5\n";
      break;
    case 1:  // string-constant selection on the dictionary column
      text = ":- U(k, sg, a, d), sg = 'hot', a < " + x + "\n";
      break;
    default:  // join on the string attribute (dictionary-code join)
      text = ":- U(k, sg, a, d), V(k2, sg, c), a < " + x + ", c > " + y +
             ".5\n";
      break;
  }
  auto ics = ParseConstraintSet(text);
  ASSERT_TRUE(ics.ok()) << ics.status().ToString();
  *out_db = std::move(db);
  *out_ics = std::move(ics).value();
}

class RandomWorkloadDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomWorkloadDifferentialTest, ParallelEqualsSerial) {
  for (int shape = 0; shape < 3; ++shape) {
    SCOPED_TRACE("shape " + std::to_string(shape));
    Database db(std::make_shared<Schema>());
    std::vector<DenialConstraint> ics;
    MakeRandomWorkload(GetParam(), shape, &db, &ics);
    RunDifferentialCase(db, ics);
  }
}

TEST_P(RandomWorkloadDifferentialTest, SolversReturnValidBoundedCovers) {
  for (int shape = 0; shape < 3; ++shape) {
    SCOPED_TRACE("shape " + std::to_string(shape));
    Database db(std::make_shared<Schema>());
    std::vector<DenialConstraint> ics;
    MakeRandomWorkload(GetParam(), shape, &db, &ics);
    RunSolverValidityCase(db, ics);
  }
}

TEST_P(RandomWorkloadDifferentialTest, ColumnarEqualsRow) {
  for (int shape = 0; shape < 3; ++shape) {
    SCOPED_TRACE("shape " + std::to_string(shape));
    Database db(std::make_shared<Schema>());
    std::vector<DenialConstraint> ics;
    MakeRandomWorkload(GetParam(), shape, &db, &ics);
    RunColumnarDifferentialCase(db, ics);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkloadDifferentialTest,
                         ::testing::Range<uint64_t>(1, 65));

class MixedTypeDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(MixedTypeDifferentialTest, ColumnarEqualsRow) {
  for (int shape = 0; shape < 3; ++shape) {
    SCOPED_TRACE("shape " + std::to_string(shape));
    Database db(std::make_shared<Schema>());
    std::vector<DenialConstraint> ics;
    MakeMixedTypeWorkload(GetParam(), shape, &db, &ics);
    RunColumnarDifferentialCase(db, ics);
    RunDifferentialCase(db, ics);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedTypeDifferentialTest,
                         ::testing::Range<uint64_t>(1, 33));

class GeneratorDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(GeneratorDifferentialTest, ClientBuyParallelEqualsSerial) {
  ClientBuyOptions options;
  options.num_clients = 25;
  options.seed = GetParam();
  auto workload = GenerateClientBuy(options);
  ASSERT_TRUE(workload.ok());
  RunDifferentialCase(workload->db, workload->ics);
  RunSolverValidityCase(workload->db, workload->ics);
}

TEST_P(GeneratorDifferentialTest, ClientBuyColumnarEqualsRow) {
  ClientBuyOptions options;
  options.num_clients = 25;
  options.seed = GetParam();
  auto workload = GenerateClientBuy(options);
  ASSERT_TRUE(workload.ok());
  RunColumnarDifferentialCase(workload->db, workload->ics);
}

TEST_P(GeneratorDifferentialTest, CensusColumnarEqualsRow) {
  CensusOptions options;
  options.num_households = 12;
  options.seed = GetParam();
  auto workload = GenerateCensus(options);
  ASSERT_TRUE(workload.ok());
  RunColumnarDifferentialCase(workload->db, workload->ics);
}

TEST_P(GeneratorDifferentialTest, CensusParallelEqualsSerial) {
  CensusOptions options;
  options.num_households = 12;
  options.seed = GetParam();
  auto workload = GenerateCensus(options);
  ASSERT_TRUE(workload.ok());
  RunDifferentialCase(workload->db, workload->ics);
  RunSolverValidityCase(workload->db, workload->ics);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorDifferentialTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace dbrepair
