// Reference copy of Algorithms 3-4 (candidate mono-local fixes and their
// solved links), written the direct way: std::map groups looked up per
// tuple, a node-based dedupe set, and a materialised t' per candidate
// checked with the plain SetSatisfies. GenerateCandidateFixes — one row
// table per candidate column, the closed-form link rule where the
// constraint's shape allows it, one overridden cell instead of t'
// elsewhere — must produce the same fix list: ids (order), tuples, values,
// bit-equal weights and solved lists, alone and inside BuildRepairProblem
// at 1 and 4 threads. The inputs cover
// both link paths: every generator, a local self-join (a repeated relation
// always takes the SetSatisfies fallback), and non-local sets whose
// flexible attribute sits in a variable-variable built-in, in a join, or
// under a constant.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "constraints/locality.h"
#include "constraints/parser.h"
#include "constraints/violation_engine.h"
#include "gen/adversary.h"
#include "gen/census.h"
#include "gen/client_buy.h"
#include "gen/paper_example.h"
#include "gen/sensor_drift.h"
#include "gen/zipf_hotspot.h"
#include "obs/context.h"
#include "repair/instance_builder.h"
#include "repair/mono_local_fix.h"

namespace dbrepair {
namespace {

std::vector<CandidateFix> ReferenceCandidateFixes(
    const Database& db, const std::vector<BoundConstraint>& ics,
    const DistanceFunction& distance,
    const std::vector<ViolationSet>& violations) {
  // ---- Algorithm 3. ----
  const LocalityReport locality = CheckLocality(db.schema(), ics);
  using GroupKey = std::tuple<uint32_t, uint32_t, uint32_t>;
  std::map<GroupKey, std::vector<FlexibleComparison>> groups;
  std::map<std::pair<uint32_t, uint32_t>, std::vector<uint32_t>> attrs;
  for (const FlexibleComparison& cmp : locality.flexible_comparisons) {
    auto& group = groups[{cmp.ic_index, cmp.relation, cmp.attribute}];
    if (group.empty()) {
      attrs[{cmp.ic_index, cmp.relation}].push_back(cmp.attribute);
    }
    group.push_back(cmp);
  }
  std::set<std::tuple<uint64_t, uint32_t, int64_t>> seen;
  std::vector<CandidateFix> fixes;
  for (const ViolationSet& v : violations) {
    for (const TupleRef t : v.tuples) {
      const auto it = attrs.find({v.ic_index, t.relation});
      if (it == attrs.end()) continue;
      for (const uint32_t attr : it->second) {
        const std::optional<int64_t> mlf =
            MonoLocalFixValue(groups.at({v.ic_index, t.relation, attr}));
        if (!mlf.has_value()) continue;
        const Value& current = db.tuple(t).value(attr);
        if (current.is_int() && current.AsInt() == *mlf) continue;
        if (!seen.insert({t.Packed(), attr, *mlf}).second) continue;
        CandidateFix fix;
        fix.tuple = t;
        fix.attribute = attr;
        fix.old_value = current.is_int() ? current.AsInt() : 0;
        fix.new_value = *mlf;
        const double alpha =
            db.schema().relations()[t.relation].attribute(attr).alpha;
        fix.weight = alpha * distance.ScalarDistance(
                                 static_cast<double>(fix.old_value),
                                 static_cast<double>(*mlf));
        fixes.push_back(std::move(fix));
      }
    }
  }

  // ---- Algorithm 4: S(t, t') over the sets containing t. ----
  std::map<TupleRef, std::vector<uint32_t>> sets_of;
  for (uint32_t vid = 0; vid < violations.size(); ++vid) {
    for (const TupleRef t : violations[vid].tuples) sets_of[t].push_back(vid);
  }
  std::vector<CandidateFix> kept;
  for (CandidateFix& fix : fixes) {
    Tuple fixed(db.tuple(fix.tuple).values());
    fixed.set_value(fix.attribute, Value::Int(fix.new_value));
    for (const uint32_t vid : sets_of[fix.tuple]) {
      const ViolationSet& v = violations[vid];
      std::vector<std::pair<uint32_t, TupleView>> members;
      for (const TupleRef t : v.tuples) {
        members.emplace_back(t.relation,
                             t == fix.tuple ? fixed.view() : db.tuple(t));
      }
      if (ViolationEngine::SetSatisfies(ics[v.ic_index], members)) {
        fix.solved.push_back(vid);
      }
    }
    if (!fix.solved.empty()) kept.push_back(std::move(fix));
  }
  return kept;
}

// How many Algorithm-4 checks took each path.
struct LinkChecks {
  uint64_t closed = 0;
  uint64_t fallback = 0;
};

// Expects `got` to be `want` fix for fix: ids, cells, bit-equal weights and
// solved lists.
void ExpectSameFixes(const std::vector<CandidateFix>& got,
                     const std::vector<CandidateFix>& want,
                     const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t id = 0; id < want.size(); ++id) {
    ASSERT_EQ(got[id].tuple, want[id].tuple) << label << " fix " << id;
    EXPECT_EQ(got[id].attribute, want[id].attribute) << label << " fix " << id;
    EXPECT_EQ(got[id].old_value, want[id].old_value) << label << " fix " << id;
    EXPECT_EQ(got[id].new_value, want[id].new_value) << label << " fix " << id;
    EXPECT_EQ(got[id].weight, want[id].weight) << label << " fix " << id;
    EXPECT_EQ(got[id].solved, want[id].solved) << label << " fix " << id;
  }
}

// The (closed, fallback) link-check counts `obs` recorded.
std::pair<uint64_t, uint64_t> LinkCheckCounts(obs::ObsContext& obs) {
  const uint64_t closed =
      obs.metrics.GetCounter("build.link_checks_closed")->value();
  const uint64_t fallback =
      obs.metrics.GetCounter("build.link_checks_fallback")->value();
  EXPECT_EQ(closed + fallback,
            obs.metrics.GetCounter("build.satisfies_checks")->value());
  return {closed, fallback};
}

// Checks GenerateCandidateFixes against the reference, then the whole build
// at 1 and 4 threads (its violation scan shards): the same violation array,
// the same fixes and the same link-path counts, which `checks` gets.
void ExpectMatchesReference(const GeneratedWorkload& w,
                            LinkChecks* checks = nullptr) {
  auto bound = BindAll(w.db.schema(), w.ics);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  ViolationEngine engine(w.db, *bound);
  auto violations = engine.FindViolations();
  ASSERT_TRUE(violations.ok()) << violations.status().ToString();
  ASSERT_FALSE(violations->empty());
  const DistanceFunction distance(DistanceKind::kL1);
  const std::vector<CandidateFix> expected =
      ReferenceCandidateFixes(w.db, *bound, distance, *violations);
  ASSERT_FALSE(expected.empty());

  std::pair<uint64_t, uint64_t> link_checks;
  {
    obs::ObsContext obs;
    const obs::ScopedObs scoped(&obs);
    auto fixes = GenerateCandidateFixes(w.db, *bound, distance, *violations,
                                        /*vid_offset=*/0);
    ASSERT_TRUE(fixes.ok()) << fixes.status().ToString();
    ExpectSameFixes(*fixes, expected, "GenerateCandidateFixes");
    link_checks = LinkCheckCounts(obs);
  }
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    obs::ObsContext obs;
    const obs::ScopedObs scoped(&obs);
    BuildOptions build;
    build.num_threads = threads;
    auto problem = BuildRepairProblem(w.db, *bound, distance, build);
    ASSERT_TRUE(problem.ok()) << problem.status().ToString();
    const std::string label = std::to_string(threads) + " threads";
    EXPECT_EQ(problem->violations, *violations) << label;
    ExpectSameFixes(problem->fixes, expected, label);
    EXPECT_EQ(LinkCheckCounts(obs), link_checks) << label;
  }
  if (checks != nullptr) {
    *checks = LinkChecks{link_checks.first, link_checks.second};
  }
}

// A workload over hand-made relations: `relations` gives each relation's
// name, attributes and key; `rows` fills them; `constraints` is parsed as
// an IC set.
GeneratedWorkload MakeWorkload(
    const std::vector<std::tuple<std::string, std::vector<AttributeDef>,
                                 std::vector<std::string>>>& relations,
    const std::vector<std::pair<std::string, std::vector<int64_t>>>& rows,
    const char* constraints) {
  auto schema = std::make_shared<Schema>();
  for (const auto& [name, attrs, key] : relations) {
    EXPECT_TRUE(schema->AddRelation(RelationSchema(name, attrs, key)).ok());
  }
  Database db(schema);
  for (const auto& [relation, cells] : rows) {
    std::vector<Value> values;
    for (const int64_t cell : cells) values.push_back(Value::Int(cell));
    EXPECT_TRUE(db.Insert(relation, std::move(values)).ok());
  }
  auto ics = ParseConstraintSet(constraints);
  EXPECT_TRUE(ics.ok()) << ics.status().ToString();
  return GeneratedWorkload{std::move(db), std::move(ics).value()};
}

bool IsLocal(const GeneratedWorkload& w) {
  auto bound = BindAll(w.db.schema(), w.ics);
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  return bound.ok() && CheckLocality(w.db.schema(), *bound).local;
}

AttributeDef Hard(const char* name) {
  return AttributeDef{name, Type::kInt64, false, 1.0};
}
AttributeDef Flexible(const char* name) {
  return AttributeDef{name, Type::kInt64, true, 1.0};
}

TEST(CandidateFixReferenceTest, ClientBuy) {
  ClientBuyOptions options;
  options.num_clients = 3'000;
  options.hotspot_clients = 3;
  options.hotspot_buys = 60;
  options.seed = 9;
  auto w = GenerateClientBuy(options);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  LinkChecks checks;
  ExpectMatchesReference(*w, &checks);
  EXPECT_GT(checks.closed, 0u);
  EXPECT_EQ(checks.fallback, 0u);
}

TEST(CandidateFixReferenceTest, ZipfHotspot) {
  ZipfHotspotOptions options;
  options.num_hubs = 1'000;
  options.skew = 1.5;
  options.seed = 4;
  auto w = GenerateZipfHotspot(options);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  LinkChecks checks;
  ExpectMatchesReference(*w, &checks);
  EXPECT_GT(checks.closed, 0u);
  EXPECT_EQ(checks.fallback, 0u);
}

TEST(CandidateFixReferenceTest, Census) {
  CensusOptions options;
  options.num_households = 800;
  options.seed = 6;
  auto w = GenerateCensus(options);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  LinkChecks checks;
  ExpectMatchesReference(*w, &checks);
  EXPECT_GT(checks.closed, 0u);
  EXPECT_EQ(checks.fallback, 0u);
}

TEST(CandidateFixReferenceTest, SensorDrift) {
  SensorDriftOptions options;
  options.num_sensors = 40;
  options.readings_per_sensor = 60;
  options.seed = 3;
  auto w = GenerateSensorDrift(options);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  ExpectMatchesReference(*w);
}

TEST(CandidateFixReferenceTest, Adversary) {
  AdversaryOptions options;
  options.num_hubs = 30;
  options.target_degree = 12;
  options.seed = 5;
  auto w = GenerateAdversary(options);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  ExpectMatchesReference(*w);
}

TEST(CandidateFixReferenceTest, PaperExamples) {
  ExpectMatchesReference(MakePaperTableExample());
  ExpectMatchesReference(MakePaperPubExample());
}

// A local self-join: R repeats, so every check takes the SetSatisfies
// fallback. A tuple with x < 10 and y > 50 fills both atoms alone.
TEST(CandidateFixReferenceTest, LocalSelfJoinTakesTheFallback) {
  std::vector<std::pair<std::string, std::vector<int64_t>>> rows;
  for (int64_t id = 0; id < 120; ++id) {
    rows.push_back({"R", {id, id % 7, (id * 37) % 20, (id * 53) % 100}});
  }
  const GeneratedWorkload w = MakeWorkload(
      {{"R",
        {Hard("id"), Hard("g"), Flexible("x"), Flexible("y")},
        {"id"}}},
      rows, "sj: :- R(id, g, x, y), R(id2, g, x2, y2), x < 10, y2 > 50\n");
  ASSERT_TRUE(IsLocal(w));
  LinkChecks checks;
  ExpectMatchesReference(w, &checks);
  EXPECT_GT(checks.fallback, 0u);
  EXPECT_EQ(checks.closed, 0u);
}

// Non-local sets, passed straight to GenerateCandidateFixes. c1's fix
// x -> 10 is checked against the sets of c2-c4, where R's x is in a
// variable-variable built-in (c2: x = z, c3: x != z), in a join (c4: x
// also fills T's second position). Breaking any of them solves the set
// even though no `x θ c` built-in turns false, so the closed form must not
// apply there.
TEST(CandidateFixReferenceTest, NonLocalVariableBuiltinsTakeTheFallback) {
  std::vector<std::pair<std::string, std::vector<int64_t>>> rows;
  for (int64_t id = 0; id < 80; ++id) {
    const int64_t x = (id * 7) % 16;
    rows.push_back({"R", {id, x, (id * 29) % 100}});
    rows.push_back({"S", {id, id % 3 == 0 ? x : x + 1}});
    rows.push_back({"T", {id, id % 2 == 0 ? x : x + 2}});
  }
  const GeneratedWorkload w = MakeWorkload(
      {{"R", {Hard("id"), Flexible("x"), Flexible("y")}, {"id"}},
       {"S", {Hard("id"), Hard("z")}, {"id"}},
       {"T", {Hard("id"), Flexible("w")}, {"id"}}},
      rows,
      "c1: :- R(id, x, y), x < 10\n"
      "c2: :- R(id, x, y), S(id, z), x = z, y > 50\n"
      "c3: :- R(id, x, y), S(id, z), x != z, y > 80\n"
      "c4: :- R(id, x, y), T(id, x), y > 60\n");
  ASSERT_FALSE(IsLocal(w));
  LinkChecks checks;
  ExpectMatchesReference(w, &checks);
  EXPECT_GT(checks.closed, 0u);
  EXPECT_GT(checks.fallback, 0u);
}

// A non-local set with a constant at a flexible position: c2 selects
// x = 5, so c1's fix x -> 10 solves c2's sets by leaving the selection.
TEST(CandidateFixReferenceTest, NonLocalConstantPositionTakesTheFallback) {
  std::vector<std::pair<std::string, std::vector<int64_t>>> rows;
  for (int64_t id = 0; id < 90; ++id) {
    rows.push_back({"R", {id, id % 3 == 0 ? 5 : id % 12, (id * 31) % 100}});
  }
  const GeneratedWorkload w = MakeWorkload(
      {{"R", {Hard("id"), Flexible("x"), Flexible("y")}, {"id"}}}, rows,
      "c1: :- R(id, x, y), x < 10\n"
      "c2: :- R(id, 5, y), y > 50\n");
  ASSERT_FALSE(IsLocal(w));
  LinkChecks checks;
  ExpectMatchesReference(w, &checks);
  EXPECT_GT(checks.closed, 0u);
  EXPECT_GT(checks.fallback, 0u);
}

}  // namespace
}  // namespace dbrepair
