// Differential oracle for the scenario generators (zipf-hotspot,
// sensor-drift, adversary): every workload must
//   * build byte-identical repair problems and repairs at 1 and 4 threads
//     (the concurrency contract the whole pipeline carries);
//   * satisfy every solver's cover-validity invariant;
//   * respect the paper's approximation factors against the exact solver
//     at small N (H_k for the greedy family, f = MaxFrequency for layer);
//   * honour the knob each generator exists for (exact degree target,
//     skew-concentrated degree, drift-depth-proportional distance).
//
// Sizes are chosen so the MWSCP instances stay within the exact solver's
// tractability bound (28 sets) for most seeds; the exact comparison guards
// on the bound the same way tests/repair/differential_test does, and the
// adversary/sensor cases additionally assert the exact pass really ran.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "gen/adversary.h"
#include "gen/sensor_drift.h"
#include "gen/zipf_hotspot.h"
#include "repair/instance_builder.h"
#include "repair/api.h"
#include "repair/setcover/solvers.h"
#include "setcover_testing.h"

namespace dbrepair {
namespace {

void ExpectSameProblem(const RepairProblem& serial,
                       const RepairProblem& parallel) {
  ASSERT_EQ(serial.violations.size(), parallel.violations.size());
  for (size_t i = 0; i < serial.violations.size(); ++i) {
    ASSERT_TRUE(serial.violations[i] == parallel.violations[i])
        << "violation " << i;
  }
  ASSERT_EQ(serial.fixes.size(), parallel.fixes.size());
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
                      const RepairOutcome& parallel) {
  ASSERT_EQ(serial.updates.size(), parallel.updates.size());
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
  ASSERT_EQ(serial.stats.inconsistency, parallel.stats.inconsistency);
  for (size_t r = 0; r < serial.repaired.schema().relations().size(); ++r) {
    const Table& at = serial.repaired.table(r);
    const Table& bt = parallel.repaired.table(r);
    ASSERT_EQ(at.size(), bt.size());
    for (size_t row = 0; row < at.size(); ++row) {
      ASSERT_TRUE(at.row(row) == bt.row(row))
          << "relation " << r << " row " << row;
    }
  }
}

// 1-thread vs 4-thread byte-equality of the built problem and the repair.
void RunThreadDifferentialCase(const GeneratedWorkload& workload) {
  auto bound = BindAll(workload.db.schema(), workload.ics);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  const DistanceFunction distance(DistanceKind::kL1);

  BuildOptions serial_build;
  serial_build.num_threads = 1;
  auto serial = BuildRepairProblem(workload.db, *bound, distance,
                                   serial_build);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  BuildOptions parallel_build;
  parallel_build.num_threads = 4;
  auto parallel = BuildRepairProblem(workload.db, *bound, distance,
                                     parallel_build);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ExpectSameProblem(*serial, *parallel);

  RepairOptions serial_repair;
  serial_repair.num_threads = 1;
  auto serial_outcome = RepairDatabase(workload.db, workload.ics,
                                       serial_repair);
  ASSERT_TRUE(serial_outcome.ok()) << serial_outcome.status().ToString();
  RepairOptions parallel_repair;
  parallel_repair.num_threads = 4;
  auto parallel_outcome = RepairDatabase(workload.db, workload.ics,
                                         parallel_repair);
  ASSERT_TRUE(parallel_outcome.ok()) << parallel_outcome.status().ToString();
  ExpectSameRepair(*serial_outcome, *parallel_outcome);
}

double Harmonic(size_t k) {
  double h = 0;
  for (size_t i = 1; i <= k; ++i) h += 1.0 / static_cast<double>(i);
  return h;
}

// Cover validity for every solver; greedy/modified/lazy agreement; the
// paper's approximation factors versus the exact optimum when tractable.
// Returns whether the exact comparison actually ran.
bool RunSolverValidityCase(const GeneratedWorkload& workload) {
  auto bound = BindAll(workload.db.schema(), workload.ics);
  EXPECT_TRUE(bound.ok());
  auto problem = BuildRepairProblem(workload.db, *bound,
                                    DistanceFunction(DistanceKind::kL1));
  EXPECT_TRUE(problem.ok()) << problem.status().ToString();
  if (problem->instance.sets.empty()) return false;  // consistent instance
  const CsrSetCoverInstance instance =
      CsrSetCoverInstance::Freeze(problem->instance);
  EXPECT_TRUE(instance.Validate().ok());

  auto greedy = SolveSetCover(SolverKind::kGreedy, instance);
  auto lazy = SolveSetCover(SolverKind::kLazyGreedy, instance);
  auto modified = SolveSetCover(SolverKind::kModifiedGreedy, instance);
  auto layer = SolveSetCover(SolverKind::kLayer, instance);
  auto modified_layer = SolveSetCover(SolverKind::kModifiedLayer, instance);
  for (const auto* solution :
       {&greedy, &lazy, &modified, &layer, &modified_layer}) {
    EXPECT_TRUE(solution->ok()) << solution->status().ToString();
    EXPECT_TRUE(IsCover(instance, (*solution)->chosen));
    EXPECT_NEAR((*solution)->weight,
                SelectionWeight(instance, (*solution)->chosen), 1e-9);
  }
  EXPECT_EQ(greedy->chosen, lazy->chosen);
  EXPECT_EQ(greedy->chosen, modified->chosen);
  EXPECT_NEAR(layer->weight, modified_layer->weight,
              1e-6 * (1.0 + layer->weight));

  if (instance.num_sets() > 28) return false;  // exact optimum intractable
  auto exact = SolveSetCover(SolverKind::kExact, instance);
  EXPECT_TRUE(exact.ok()) << exact.status().ToString();
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
  return true;
}

constexpr uint64_t kSeeds[] = {1, 2, 3, 4, 5, 6};

GeneratedWorkload SmallZipf(uint64_t seed, double skew = 1.2) {
  ZipfHotspotOptions options;
  options.num_hubs = 8;
  options.spokes_per_hub = 2;
  options.skew = skew;
  options.inconsistency_ratio = 0.35;
  options.seed = seed;
  auto workload = GenerateZipfHotspot(options);
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  return std::move(workload).value();
}

GeneratedWorkload SmallDrift(uint64_t seed) {
  SensorDriftOptions options;
  options.num_sensors = 6;
  options.readings_per_sensor = 10;
  options.drift_ratio = 0.34;
  options.drift_per_tick = 8;
  options.seed = seed;
  auto workload = GenerateSensorDrift(options);
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  return std::move(workload).value();
}

GeneratedWorkload SmallAdversary(uint64_t seed, size_t degree = 4) {
  AdversaryOptions options;
  options.num_hubs = 4;
  options.target_degree = degree;
  options.clean_spokes = 1;
  options.seed = seed;
  auto workload = GenerateAdversary(options);
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  return std::move(workload).value();
}

TEST(ScenarioDifferential, ZipfHotspotThreadInvariance) {
  for (const uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunThreadDifferentialCase(SmallZipf(seed));
  }
}

TEST(ScenarioDifferential, SensorDriftThreadInvariance) {
  for (const uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunThreadDifferentialCase(SmallDrift(seed));
  }
}

TEST(ScenarioDifferential, AdversaryThreadInvariance) {
  for (const uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunThreadDifferentialCase(SmallAdversary(seed));
  }
}

TEST(ScenarioDifferential, ZipfHotspotSolverValidity) {
  for (const uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunSolverValidityCase(SmallZipf(seed));
  }
}

TEST(ScenarioDifferential, SensorDriftSolverValidityWithExact) {
  size_t exact_runs = 0;
  for (const uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // 6 sensors x 10 ticks with 2 drifters: a handful of violating
    // readings, each with a single clamp fix, well inside the exact bound.
    if (RunSolverValidityCase(SmallDrift(seed))) ++exact_runs;
  }
  EXPECT_GT(exact_runs, 0u) << "exact-solver comparison never ran";
}

TEST(ScenarioDifferential, AdversarySolverValidityWithExact) {
  size_t exact_runs = 0;
  for (const uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // 4 hubs x degree 4: 16 elements, 4 + 16 = 20 candidate fixes <= 28,
    // so the exact comparison must run for every seed.
    if (RunSolverValidityCase(SmallAdversary(seed))) ++exact_runs;
  }
  EXPECT_EQ(exact_runs, std::size(kSeeds));
}

// The adversary's contract: Deg(D, IC) equals the target exactly, for any
// seed, including the consistent target 0.
TEST(ScenarioDifferential, AdversaryHitsDegreeTargetExactly) {
  for (const uint64_t seed : kSeeds) {
    for (const size_t degree : {size_t{0}, size_t{2}, size_t{7}}) {
      const GeneratedWorkload workload = SmallAdversary(seed, degree);
      auto outcome = RepairDatabase(workload.db, workload.ics);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      EXPECT_EQ(outcome->stats.max_degree, degree)
          << "seed " << seed << " degree " << degree;
    }
  }
}

// The zipf knob's contract: skewing the join raises the hotspot's degree
// on the very same instance size and ratio.
TEST(ScenarioDifferential, ZipfSkewConcentratesDegree) {
  for (const uint64_t seed : kSeeds) {
    ZipfHotspotOptions uniform;
    uniform.num_hubs = 50;
    uniform.spokes_per_hub = 6;
    uniform.skew = 0.0;
    uniform.seed = seed;
    ZipfHotspotOptions skewed = uniform;
    skewed.skew = 2.0;
    auto flat = GenerateZipfHotspot(uniform);
    auto hot = GenerateZipfHotspot(skewed);
    ASSERT_TRUE(flat.ok() && hot.ok());
    auto flat_outcome = RepairDatabase(flat->db, flat->ics);
    auto hot_outcome = RepairDatabase(hot->db, hot->ics);
    ASSERT_TRUE(flat_outcome.ok() && hot_outcome.ok());
    EXPECT_GT(hot_outcome->stats.max_degree, flat_outcome->stats.max_degree)
        << "seed " << seed;
  }
}

// The drift scenario's contract: every violating reading belongs to a
// drifting sensor, and the repair clamps values back to the threshold (the
// numerical-fix path), so the distance grows with drift depth.
TEST(ScenarioDifferential, DriftClampsToThreshold) {
  SensorDriftOptions options;
  options.num_sensors = 6;
  options.readings_per_sensor = 12;
  options.drift_ratio = 0.5;
  options.drift_per_tick = 10;
  options.threshold = 100;
  auto workload = GenerateSensorDrift(options);
  ASSERT_TRUE(workload.ok());
  auto outcome = RepairDatabase(workload->db, workload->ics);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_GT(outcome->updates.size(), 0u);
  for (const AppliedUpdate& update : outcome->updates) {
    EXPECT_EQ(update.new_value, options.threshold);
    EXPECT_GT(update.old_value, options.threshold);
  }
}

}  // namespace
}  // namespace dbrepair
