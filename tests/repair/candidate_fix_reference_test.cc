// Reference copy of Algorithms 3-4 (candidate mono-local fixes and their
// solved links), written the direct way: std::map groups looked up per
// tuple, a node-based dedupe set, and a materialised t' per candidate
// checked with the plain SetSatisfies. GenerateCandidateFixes — flat MLF
// table, open-addressed dedupe, one overridden cell instead of t' — must
// produce the same fix list: ids (order), tuples, values, bit-equal weights
// and solved lists, at 1 and 4 threads.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "common/thread_pool.h"
#include "constraints/locality.h"
#include "constraints/violation_engine.h"
#include "gen/census.h"
#include "gen/client_buy.h"
#include "gen/zipf_hotspot.h"
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

void ExpectMatchesReference(const GeneratedWorkload& w) {
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

  ThreadPool pool(4);
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    auto fixes = GenerateCandidateFixes(w.db, *bound, distance, *violations,
                                        /*vid_offset=*/0, threads,
                                        threads > 1 ? &pool : nullptr);
    ASSERT_TRUE(fixes.ok()) << fixes.status().ToString();
    ASSERT_EQ(fixes->size(), expected.size()) << threads << " threads";
    for (size_t id = 0; id < expected.size(); ++id) {
      const CandidateFix& got = (*fixes)[id];
      const CandidateFix& want = expected[id];
      ASSERT_EQ(got.tuple, want.tuple) << "fix " << id;
      EXPECT_EQ(got.attribute, want.attribute) << "fix " << id;
      EXPECT_EQ(got.old_value, want.old_value) << "fix " << id;
      EXPECT_EQ(got.new_value, want.new_value) << "fix " << id;
      EXPECT_EQ(got.weight, want.weight) << "fix " << id;
      EXPECT_EQ(got.solved, want.solved) << "fix " << id;
    }
  }
}

TEST(CandidateFixReferenceTest, ClientBuy) {
  ClientBuyOptions options;
  options.num_clients = 3'000;
  options.hotspot_clients = 3;
  options.hotspot_buys = 60;
  options.seed = 9;
  auto w = GenerateClientBuy(options);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  ExpectMatchesReference(*w);
}

TEST(CandidateFixReferenceTest, ZipfHotspot) {
  ZipfHotspotOptions options;
  options.num_hubs = 1'000;
  options.skew = 1.5;
  options.seed = 4;
  auto w = GenerateZipfHotspot(options);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  ExpectMatchesReference(*w);
}

TEST(CandidateFixReferenceTest, Census) {
  CensusOptions options;
  options.num_households = 800;
  options.seed = 6;
  auto w = GenerateCensus(options);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  ExpectMatchesReference(*w);
}

}  // namespace
}  // namespace dbrepair
