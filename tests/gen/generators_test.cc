#include <gtest/gtest.h>

#include "common/rng.h"
#include "constraints/violation_engine.h"
#include "gen/adversary.h"
#include "gen/census.h"
#include "gen/client_buy.h"
#include "gen/paper_example.h"
#include "gen/scenario.h"
#include "gen/sensor_drift.h"
#include "gen/zipf_hotspot.h"

namespace dbrepair {
namespace {

// --- Seed audit -----------------------------------------------------------
//
// Every generator routes all randomness through a single Rng constructed
// from options.seed (Rng has no default constructor, so an unseeded stream
// cannot compile). These regression tests pin the contract for every
// generator: same seed, byte-identical database; different seed, different
// content.

bool SameDatabases(const Database& a, const Database& b) {
  if (a.TotalTuples() != b.TotalTuples()) return false;
  if (a.relation_count() != b.relation_count()) return false;
  for (size_t r = 0; r < a.relation_count(); ++r) {
    if (a.table(r).size() != b.table(r).size()) return false;
    for (size_t row = 0; row < a.table(r).size(); ++row) {
      if (!(a.table(r).row(row) == b.table(r).row(row))) return false;
    }
  }
  return true;
}

template <typename Options, typename Generate>
void RunSeedDeterminismCase(Options options, Generate generate) {
  options.seed = 9;
  const auto a = generate(options);
  const auto b = generate(options);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(SameDatabases(a->db, b->db)) << "same seed diverged";

  options.seed = 10;
  const auto c = generate(options);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_FALSE(SameDatabases(a->db, c->db)) << "seed had no effect";
}

TEST(SeedAudit, ClientBuyIsSeedDeterministic) {
  ClientBuyOptions options;
  options.num_clients = 60;
  RunSeedDeterminismCase(options, GenerateClientBuy);
}

TEST(SeedAudit, CensusIsSeedDeterministic) {
  CensusOptions options;
  options.num_households = 60;
  RunSeedDeterminismCase(options, GenerateCensus);
}

TEST(SeedAudit, ZipfHotspotIsSeedDeterministic) {
  ZipfHotspotOptions options;
  options.num_hubs = 40;
  RunSeedDeterminismCase(options, GenerateZipfHotspot);
}

TEST(SeedAudit, SensorDriftIsSeedDeterministic) {
  SensorDriftOptions options;
  options.num_sensors = 10;
  options.readings_per_sensor = 12;
  RunSeedDeterminismCase(options, GenerateSensorDrift);
}

TEST(SeedAudit, AdversaryIsSeedDeterministic) {
  AdversaryOptions options;
  options.num_hubs = 12;
  options.target_degree = 4;
  RunSeedDeterminismCase(options, GenerateAdversary);
}

TEST(ClientBuyGeneratorTest, DeterministicInSeed) {
  ClientBuyOptions options;
  options.num_clients = 50;
  options.seed = 9;
  const auto a = GenerateClientBuy(options);
  const auto b = GenerateClientBuy(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->db.TotalTuples(), b->db.TotalTuples());
  for (size_t r = 0; r < a->db.relation_count(); ++r) {
    for (size_t row = 0; row < a->db.table(r).size(); ++row) {
      EXPECT_EQ(a->db.table(r).row(row), b->db.table(r).row(row));
    }
  }
}

// The Client/Buy generation loop with one Database::Insert per row: the
// same Rng draws in the same order as GenerateClientBuy, which hands its
// rows to Table::AppendRows in chunks instead.
Database ClientBuyByInsert(const ClientBuyOptions& options) {
  Rng rng(options.seed);
  Database db(MakeClientBuySchema());
  size_t hotspots_left = options.hotspot_clients;
  for (size_t c = 0; c < options.num_clients; ++c) {
    const auto id = static_cast<int64_t>(c + 1);
    const bool inconsistent = rng.Bernoulli(options.inconsistency_ratio);
    int64_t age;
    int64_t credit;
    if (inconsistent) {
      age = rng.UniformInRange(10, 17);
      credit = rng.Bernoulli(options.credit_violation_ratio)
                   ? rng.UniformInRange(51, 100)
                   : rng.UniformInRange(0, 50);
    } else {
      age = rng.UniformInRange(18, 80);
      credit = rng.UniformInRange(0, 100);
    }
    EXPECT_TRUE(db.Insert("Client", {Value::Int(id), Value::Int(age),
                                     Value::Int(credit)})
                    .ok());
    size_t buys = options.buys_per_client;
    bool hotspot = false;
    if (inconsistent && hotspots_left > 0) {
      hotspot = true;
      --hotspots_left;
      buys = options.hotspot_buys;
    }
    for (size_t b = 0; b < buys; ++b) {
      const int64_t price =
          inconsistent &&
                  (hotspot || rng.Bernoulli(options.purchase_violation_ratio))
              ? rng.UniformInRange(26, 100)
              : rng.UniformInRange(1, 25);
      EXPECT_TRUE(db.Insert("Buy", {Value::Int(id),
                                    Value::Int(static_cast<int64_t>(b + 1)),
                                    Value::Int(price)})
                      .ok());
    }
  }
  return db;
}

// Chunked AppendRows builds the same tables as per-row Inserts: every cell,
// and every key's LookupByKey row. Sized past two chunks per relation, with
// hotspots so Buy's rows per client vary.
TEST(ClientBuyGeneratorTest, ChunkedBuildEqualsPerRowInserts) {
  ClientBuyOptions options;
  options.num_clients = 9'000;
  options.hotspot_clients = 4;
  options.hotspot_buys = 300;
  options.seed = 17;
  const auto w = GenerateClientBuy(options);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  const Database expected = ClientBuyByInsert(options);
  EXPECT_TRUE(SameDatabases(w->db, expected));
  for (size_t r = 0; r < expected.relation_count(); ++r) {
    const Table& table = w->db.table(r);
    const std::vector<size_t>& key = table.schema().key_positions();
    for (size_t row = 0; row < table.size(); ++row) {
      std::vector<Value> key_values;
      for (const size_t a : key) {
        key_values.push_back(expected.table(r).row(row).value(a));
      }
      const Result<size_t> found = table.LookupByKey(key_values);
      ASSERT_TRUE(found.ok()) << found.status().ToString();
      EXPECT_EQ(*found, row);
    }
  }
  EXPECT_FALSE(w->db.FindTable("Client")
                   ->LookupByKey({Value::Int(9'001)})
                   .ok());
}

TEST(ClientBuyGeneratorTest, SizesMatchOptions) {
  ClientBuyOptions options;
  options.num_clients = 100;
  options.buys_per_client = 3;
  options.hotspot_clients = 0;
  const auto w = GenerateClientBuy(options);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->db.FindTable("Client")->size(), 100u);
  EXPECT_EQ(w->db.FindTable("Buy")->size(), 300u);
}

TEST(ClientBuyGeneratorTest, ZeroRatioIsConsistent) {
  ClientBuyOptions options;
  options.num_clients = 200;
  options.inconsistency_ratio = 0.0;
  const auto w = GenerateClientBuy(options);
  ASSERT_TRUE(w.ok());
  auto bound = BindAll(w->db.schema(), w->ics);
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(ViolationEngine::Satisfies(w->db, *bound).value());
}

TEST(ClientBuyGeneratorTest, RatioControlsInvolvedTuples) {
  ClientBuyOptions options;
  options.num_clients = 500;
  options.inconsistency_ratio = 0.3;
  options.seed = 3;
  const auto w = GenerateClientBuy(options);
  ASSERT_TRUE(w.ok());
  auto bound = BindAll(w->db.schema(), w->ics);
  ASSERT_TRUE(bound.ok());
  ViolationEngine engine(w->db, *bound);
  const auto violations = engine.FindViolations();
  ASSERT_TRUE(violations.ok());
  const DegreeInfo degrees = ComputeDegrees(*violations);
  const double involved = static_cast<double>(degrees.per_tuple.size()) /
                          static_cast<double>(w->db.TotalTuples());
  // "around 30% of tuples involved in inconsistencies": generator places
  // ~30% of clients in violation; with their purchases the involved-tuple
  // share lands in a generous band around it.
  EXPECT_GT(involved, 0.15);
  EXPECT_LT(involved, 0.45);
}

TEST(ClientBuyGeneratorTest, HotspotsRaiseDegree) {
  ClientBuyOptions base;
  base.num_clients = 200;
  base.seed = 5;
  const auto w1 = GenerateClientBuy(base);
  ASSERT_TRUE(w1.ok());

  ClientBuyOptions hot = base;
  hot.hotspot_clients = 3;
  hot.hotspot_buys = 50;
  const auto w2 = GenerateClientBuy(hot);
  ASSERT_TRUE(w2.ok());

  auto deg = [](const GeneratedWorkload& w) {
    auto bound = BindAll(w.db.schema(), w.ics);
    EXPECT_TRUE(bound.ok());
    ViolationEngine engine(w.db, *bound);
    auto violations = engine.FindViolations();
    EXPECT_TRUE(violations.ok());
    return ComputeDegrees(*violations).max_degree;
  };
  EXPECT_GE(deg(*w2), 50u);
  EXPECT_LT(deg(*w1), 10u);
}

TEST(CensusGeneratorTest, DegreeBoundedByHouseholdSize) {
  CensusOptions options;
  options.num_households = 300;
  options.max_members = 5;
  options.seed = 11;
  const auto w = GenerateCensus(options);
  ASSERT_TRUE(w.ok());
  auto bound = BindAll(w->db.schema(), w->ics);
  ASSERT_TRUE(bound.ok());
  ViolationEngine engine(w->db, *bound);
  const auto violations = engine.FindViolations();
  ASSERT_TRUE(violations.ok());
  const DegreeInfo degrees = ComputeDegrees(*violations);
  // A household tuple can appear with each member (c5) plus its own
  // violations (c1, c2): bounded by max_members + constant.
  EXPECT_LE(degrees.max_degree, options.max_members + 2);
}

TEST(CensusGeneratorTest, InconsistentHouseholdsExist) {
  CensusOptions options;
  options.num_households = 100;
  options.inconsistency_ratio = 0.5;
  options.seed = 2;
  const auto w = GenerateCensus(options);
  ASSERT_TRUE(w.ok());
  auto bound = BindAll(w->db.schema(), w->ics);
  ASSERT_TRUE(bound.ok());
  ViolationEngine engine(w->db, *bound);
  const auto violations = engine.FindViolations();
  ASSERT_TRUE(violations.ok());
  EXPECT_GT(violations->size(), 10u);
}

TEST(CensusGeneratorTest, ZeroRatioIsConsistent) {
  CensusOptions options;
  options.num_households = 100;
  options.inconsistency_ratio = 0.0;
  const auto w = GenerateCensus(options);
  ASSERT_TRUE(w.ok());
  auto bound = BindAll(w->db.schema(), w->ics);
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(ViolationEngine::Satisfies(w->db, *bound).value());
}

TEST(ZipfHotspotGeneratorTest, SizesMatchOptionsAndZeroRatioIsConsistent) {
  ZipfHotspotOptions options;
  options.num_hubs = 30;
  options.spokes_per_hub = 5;
  options.inconsistency_ratio = 0.0;
  const auto w = GenerateZipfHotspot(options);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_EQ(w->db.FindTable("Hub")->size(), 30u);
  EXPECT_EQ(w->db.FindTable("Spoke")->size(), 150u);
  auto bound = BindAll(w->db.schema(), w->ics);
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(ViolationEngine::Satisfies(w->db, *bound).value());
}

TEST(ZipfHotspotGeneratorTest, RejectsBadOptions) {
  ZipfHotspotOptions no_hubs;
  no_hubs.num_hubs = 0;
  EXPECT_FALSE(GenerateZipfHotspot(no_hubs).ok());
  ZipfHotspotOptions negative_skew;
  negative_skew.skew = -1.0;
  EXPECT_FALSE(GenerateZipfHotspot(negative_skew).ok());
}

TEST(SensorDriftGeneratorTest, SizesMatchOptionsAndZeroDriftIsConsistent) {
  SensorDriftOptions options;
  options.num_sensors = 7;
  options.readings_per_sensor = 9;
  options.drift_ratio = 0.0;
  const auto w = GenerateSensorDrift(options);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_EQ(w->db.FindTable("Reading")->size(), 63u);
  auto bound = BindAll(w->db.schema(), w->ics);
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(ViolationEngine::Satisfies(w->db, *bound).value());
}

TEST(AdversaryGeneratorTest, ZeroTargetIsConsistent) {
  AdversaryOptions options;
  options.num_hubs = 10;
  options.target_degree = 0;
  options.clean_spokes = 2;
  const auto w = GenerateAdversary(options);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  auto bound = BindAll(w->db.schema(), w->ics);
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(ViolationEngine::Satisfies(w->db, *bound).value());
}

TEST(PaperExampleTest, TablesMatchThePaper) {
  const GeneratedWorkload w = MakePaperPubExample();
  EXPECT_EQ(w.db.FindTable("Paper")->size(), 3u);
  EXPECT_EQ(w.db.FindTable("Pub")->size(), 3u);
  EXPECT_EQ(w.ics.size(), 3u);
  EXPECT_EQ(w.db.table(0).row(0).ToString(), "('B1', 1, 40, 0)");

  const GeneratedWorkload card = MakeCardinalityExample();
  EXPECT_EQ(card.db.TotalTuples(), 4u);
  EXPECT_EQ(card.ics.size(), 2u);
}


// --- Scenario dispatch ----------------------------------------------------
//
// gen/scenario.h is the shared front door used by the CLI's `gen`
// subcommand and the repair server's `OPEN <tenant> GEN ...`: the same spec
// must resolve to the same generator parameters everywhere, so a tenant
// opened over the wire is byte-identical to a locally generated workload.

TEST(ScenarioDispatchTest, MatchesDirectGeneratorCalls) {
  ScenarioSpec spec;
  spec.name = "client-buy";
  spec.rows = 90;
  spec.seed = 11;
  spec.ratio = 0.4;
  auto via_dispatch = GenerateScenario(spec);
  ASSERT_TRUE(via_dispatch.ok()) << via_dispatch.status().ToString();

  ClientBuyOptions options;
  options.num_clients = 30;  // rows / 3
  options.inconsistency_ratio = 0.4;
  options.seed = 11;
  auto direct = GenerateClientBuy(options);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(SameDatabases(via_dispatch->db, direct->db));
  EXPECT_EQ(via_dispatch->ics.size(), direct->ics.size());
}

TEST(ScenarioDispatchTest, CoversEveryScenarioName) {
  for (const char* name :
       {"zipf-hotspot", "sensor-drift", "adversary", "client-buy", "census"}) {
    ScenarioSpec spec;
    spec.name = name;
    spec.rows = 60;
    spec.seed = 3;
    auto w = GenerateScenario(spec);
    ASSERT_TRUE(w.ok()) << name << ": " << w.status().ToString();
    EXPECT_GT(w->db.TotalTuples(), 0u) << name;
    EXPECT_FALSE(w->ics.empty()) << name;
  }
}

TEST(ScenarioDispatchTest, UnknownScenarioNamesTheAlternatives) {
  ScenarioSpec spec;
  spec.name = "bogus";
  const auto w = GenerateScenario(spec);
  EXPECT_EQ(w.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(w.status().message().find("zipf-hotspot"), std::string::npos);
}

}  // namespace
}  // namespace dbrepair
