// End-to-end checks that the repair pipeline records a coherent run into an
// installed ObsContext: the span hierarchy, phase-time attribution, and the
// per-component counters of the JSON snapshot.

#include <gtest/gtest.h>

#include "gen/paper_example.h"
#include "obs/context.h"
#include "obs_testing.h"
#include "repair/api.h"

namespace dbrepair {
namespace {

using obs::Json;
using obs::ObsContext;
using obs::ScopedObs;

RepairOutcome RunInstrumented(ObsContext* obs, SolverKind solver) {
  ScopedObs scoped(obs);
  const GeneratedWorkload workload = MakePaperPubExample();
  RepairOptions options;
  options.solver = solver;
  auto outcome = RepairDatabase(workload.db, workload.ics, options);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  return std::move(outcome).value();
}

TEST(PipelineObsTest, SpanTreeCoversEveryPhase) {
  ObsContext obs;
  RunInstrumented(&obs, SolverKind::kModifiedGreedy);

  const Json snapshot = obs::BuildRunSnapshot(obs);
  const Json::Array& roots = obs::SpanRoots(snapshot);
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].Find("name")->AsString(), "repair");
  EXPECT_FALSE(obs::SpanOpen(&roots[0]));

  for (const char* path :
       {"repair/bind", "repair/locality", "repair/build",
        "repair/build/violations", "repair/build/fixes",
        "repair/build/setcover", "repair/solve", "repair/apply",
        "repair/verify"}) {
    const Json* node = obs::FindSpan(snapshot, path);
    ASSERT_NE(node, nullptr) << path;
    EXPECT_FALSE(obs::SpanOpen(node)) << path;
    EXPECT_GE(obs::SpanSeconds(node), 0.0) << path;
  }
}

TEST(PipelineObsTest, ChildPhasesSumWithinRoot) {
  ObsContext obs;
  RunInstrumented(&obs, SolverKind::kModifiedGreedy);
  const Json snapshot = obs::BuildRunSnapshot(obs);
  const Json* root = obs::FindSpan(snapshot, "repair");
  ASSERT_NE(root, nullptr);
  double child_sum = 0.0;
  for (const Json& child : root->Find("children")->AsArray()) {
    child_sum += obs::SpanSeconds(&child);
  }
  // Phases are sequential and non-overlapping: their sum cannot exceed the
  // root (modulo clock resolution).
  EXPECT_LE(child_sum, obs::SpanSeconds(root) + 1e-6);
}

TEST(PipelineObsTest, StatsPhaseTimesComeFromSpans) {
  ObsContext obs;
  const RepairOutcome outcome =
      RunInstrumented(&obs, SolverKind::kModifiedGreedy);
  const RepairStats& stats = outcome.stats;
  const Json snapshot = obs::BuildRunSnapshot(obs);
  const auto seconds = [&snapshot](const char* path) {
    const Json* span = obs::FindSpan(snapshot, path);
    EXPECT_NE(span, nullptr) << path;
    return span != nullptr ? obs::SpanSeconds(span) : -1.0;
  };
  EXPECT_DOUBLE_EQ(stats.build_seconds, seconds("repair/build"));
  EXPECT_DOUBLE_EQ(stats.solve_seconds, seconds("repair/solve"));
  EXPECT_DOUBLE_EQ(stats.apply_seconds, seconds("repair/apply"));
  EXPECT_DOUBLE_EQ(stats.verify_seconds, seconds("repair/verify"));
  EXPECT_DOUBLE_EQ(stats.total_seconds, seconds("repair"));
  // Verify is its own phase, not folded into apply.
  EXPECT_GE(stats.total_seconds, stats.build_seconds + stats.solve_seconds +
                                     stats.apply_seconds +
                                     stats.verify_seconds);
}

TEST(PipelineObsTest, CountersDescribeTheRun) {
  ObsContext obs;
  const RepairOutcome outcome =
      RunInstrumented(&obs, SolverKind::kModifiedGreedy);

  EXPECT_EQ(obs.metrics.GetCounter("repair.violation_sets")->value(),
            outcome.stats.num_violations);
  EXPECT_EQ(obs.metrics.GetCounter("repair.candidate_fixes")->value(),
            outcome.stats.num_candidate_fixes);
  EXPECT_EQ(obs.metrics.GetCounter("repair.chosen_fixes")->value(),
            outcome.stats.num_chosen_fixes);
  EXPECT_EQ(obs.metrics.GetCounter("repair.applied_updates")->value(),
            outcome.stats.num_updates);
  EXPECT_DOUBLE_EQ(obs.metrics.GetGauge("repair.max_degree")->value(),
                   outcome.stats.max_degree);

  // Per-constraint violation counts match the stats breakdown.
  for (const auto& [name, count] : outcome.stats.violations_per_constraint) {
    EXPECT_EQ(
        obs.metrics.GetCounter("violations.constraint." + name)->value(),
        count)
        << name;
  }

  // The engine and builder recorded work proportional to the run.
  EXPECT_GT(obs.metrics.GetCounter("engine.rows_scanned")->value(), 0u);
  EXPECT_GT(obs.metrics.GetCounter("build.candidate_fixes")->value(), 0u);
  EXPECT_GT(obs.metrics.GetHistogram("build.fix_set_size")->count(), 0u);
}

TEST(PipelineObsTest, SolverChoiceSelectsCounterBlock) {
  ObsContext greedy_obs;
  RunInstrumented(&greedy_obs, SolverKind::kGreedy);
  EXPECT_GT(greedy_obs.metrics.GetCounter("solver.greedy.runs")->value(), 0u);
  EXPECT_EQ(greedy_obs.metrics.GetCounter("solver.layer.runs")->value(), 0u);

  ObsContext layer_obs;
  RunInstrumented(&layer_obs, SolverKind::kLayer);
  EXPECT_GT(layer_obs.metrics.GetCounter("solver.layer.runs")->value(), 0u);
  EXPECT_EQ(layer_obs.metrics.GetCounter("solver.greedy.runs")->value(), 0u);
}

TEST(PipelineObsTest, RunSnapshotRoundTripsAndSumsUp) {
  ObsContext obs;
  RunInstrumented(&obs, SolverKind::kModifiedGreedy);

  const Json snapshot = obs::BuildRunSnapshot(obs);
  auto reparsed = Json::Parse(snapshot.Dump(2));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(*reparsed, snapshot);

  ASSERT_NE(reparsed->Find("schema_version"), nullptr);
  const Json* phases = reparsed->Find("phases");
  ASSERT_NE(phases, nullptr);
  const Json* total = phases->Find("repair");
  ASSERT_NE(total, nullptr);
  double top_level_sum = 0.0;
  for (const char* phase : {"repair/bind", "repair/locality", "repair/build",
                            "repair/solve", "repair/apply", "repair/verify"}) {
    const Json* entry = phases->Find(phase);
    ASSERT_NE(entry, nullptr) << phase;
    top_level_sum += entry->AsDouble();
  }
  EXPECT_LE(top_level_sum, total->AsDouble() + 1e-6);

  const Json* metrics = reparsed->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_NE(metrics->Find("counters"), nullptr);
  const Json* trace = reparsed->Find("trace");
  ASSERT_NE(trace, nullptr);
  ASSERT_EQ(trace->AsArray().size(), 1u);
  EXPECT_EQ(trace->AsArray()[0].Find("name")->AsString(), "repair");
}

}  // namespace
}  // namespace dbrepair
