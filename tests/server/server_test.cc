// Integration tests for the multi-tenant repair server: concurrent tenant
// streams against the line protocol, differential-checked byte-for-byte
// against a library-only RepairSession replay of the same data; plus
// admission control, malformed-frame robustness, and mid-stream STATS.

#include "server/server.h"

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gen/scenario.h"
#include "io/csv.h"
#include "io/snapshot.h"
#include "obs/json.h"
#include "obs/events.h"
#include "repair/api.h"
#include "server/client.h"

namespace dbrepair::server {
namespace {

ServerOptions TestOptions() {
  ServerOptions options;
  options.port = 0;  // ephemeral; read back from the server
  return options;
}

std::string TenantName(int index) { return "tenant" + std::to_string(index); }

// Deterministic batch content for the client-buy schema
// (Client(ID, A, C), Buy(ID, I, P)): per tenant/batch-unique keys, with
// ages straddling 18 and prices straddling 25 so roughly half the inserted
// pairs violate ic1 and the incremental repair has real work to do.
std::vector<std::string> MakeRows(int tenant, int batch, int pairs) {
  std::vector<std::string> rows;
  rows.reserve(2 * static_cast<size_t>(pairs));
  for (int i = 0; i < pairs; ++i) {
    const int id = 100000 + tenant * 10000 + batch * 100 + i;
    rows.push_back("Client," + std::to_string(id) + "," +
                   std::to_string(10 + (7 * i + batch) % 20) + "," +
                   std::to_string(30 + i));
    rows.push_back("Buy," + std::to_string(id) + ",1," +
                   std::to_string(20 + (5 * i + tenant) % 15));
  }
  return rows;
}

ScenarioSpec SpecForTenant(int tenant) {
  ScenarioSpec spec;
  spec.name = "client-buy";
  spec.rows = 90;
  spec.seed = static_cast<uint64_t>(tenant + 1);
  return spec;
}

// The ground truth: generate the same workload, open a library session with
// the server's session defaults, replay the same batches, snapshot.
std::string LibrarySnapshot(int tenant, int batches, int pairs) {
  auto workload = GenerateScenario(SpecForTenant(tenant));
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  RepairRequest request;
  request.database = &workload->db;
  request.constraints = workload->ics;
  request.options.num_threads = 1;  // the server's per-session default
  auto session = OpenSession(request);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  for (int b = 0; b < batches; ++b) {
    std::vector<BatchRow> rows;
    for (const std::string& line : MakeRows(tenant, b, pairs)) {
      auto parsed = ParseTypedCsvRow((*session)->db(), line);
      EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
      rows.push_back(
          BatchRow{std::move(parsed->relation), std::move(parsed->values)});
    }
    auto stats = (*session)->ApplyBatch(rows);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  }
  std::ostringstream out;
  EXPECT_TRUE(WriteSnapshot((*session)->db(), out).ok());
  return out.str();
}

TEST(ServerTest, ConcurrentTenantStreamsMatchLibraryReplayByteForByte) {
  constexpr int kTenants = 4;
  constexpr int kBatches = 5;
  constexpr int kPairs = 6;

  ServerOptions options = TestOptions();
  options.num_workers = 4;
  auto server = RepairServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint16_t port = (*server)->port();

  std::vector<std::string> snapshots(kTenants);
  std::vector<std::string> errors(kTenants);
  std::vector<std::thread> streams;
  for (int t = 0; t < kTenants; ++t) {
    streams.emplace_back([port, t, &snapshots, &errors] {
      auto client = RepairClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        errors[t] = client.status().ToString();
        return;
      }
      const std::string name = TenantName(t);
      auto opened = client->Send("OPEN " + name + " GEN client-buy 90 " +
                                 std::to_string(t + 1));
      if (!opened.ok()) {
        errors[t] = opened.status().ToString();
        return;
      }
      for (int b = 0; b < kBatches; ++b) {
        auto applied = client->SendBatch(name, MakeRows(t, b, kPairs));
        if (!applied.ok()) {
          errors[t] = applied.status().ToString();
          return;
        }
      }
      auto snap = client->Send("SNAPSHOT " + name);
      if (!snap.ok() || snap->kind != Reply::Kind::kData) {
        errors[t] = snap.ok() ? "unexpected reply kind"
                              : snap.status().ToString();
        return;
      }
      snapshots[t] = std::move(snap->body);
      client->Quit();
    });
  }
  for (std::thread& s : streams) s.join();

  for (int t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(errors[t].empty()) << TenantName(t) << ": " << errors[t];
    const std::string expected = LibrarySnapshot(t, kBatches, kPairs);
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(snapshots[t], expected)
        << TenantName(t) << ": server repair diverged from library replay";
  }
  (*server)->Stop();
}

TEST(ServerTest, StatsMidStreamIsValidJsonWithTenantLabel) {
  auto server = RepairServer::Start(TestOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint16_t port = (*server)->port();

  auto opener = RepairClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(opener.ok());
  ASSERT_TRUE(opener->Send("OPEN midstream GEN client-buy 90 3").ok());

  std::atomic<bool> done{false};
  std::thread streamer([port, &done] {
    auto client = RepairClient::Connect("127.0.0.1", port);
    if (client.ok()) {
      for (int b = 0; b < 8; ++b) {
        (void)client->SendBatch("midstream", MakeRows(0, b, 5));
      }
    }
    done.store(true);
  });

  auto prober = RepairClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(prober.ok());
  size_t parses = 0;
  while (!done.load()) {
    auto stats = prober->Send("STATS midstream");
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_EQ(stats->kind, Reply::Kind::kData);
    auto json = obs::Json::Parse(stats->body);
    ASSERT_TRUE(json.ok()) << "mid-stream STATS is not valid JSON: "
                           << json.status().ToString();
    const obs::Json* metrics = json->Find("metrics");
    ASSERT_NE(metrics, nullptr);
    const obs::Json* labels = metrics->Find("labels");
    ASSERT_NE(labels, nullptr);
    EXPECT_EQ(labels->Find("tenant")->AsString(), "midstream");
    ASSERT_NE(json->Find("session"), nullptr);
    ++parses;
  }
  streamer.join();
  EXPECT_GT(parses, 0u);

  // The stream is done: the session telemetry must account for every batch.
  auto final_stats = prober->Send("STATS midstream");
  ASSERT_TRUE(final_stats.ok());
  auto json = obs::Json::Parse(final_stats->body);
  ASSERT_TRUE(json.ok());
  const obs::Json* recorded =
      json->Find("session")->Find("batches_recorded");
  ASSERT_NE(recorded, nullptr);
  EXPECT_GE(recorded->AsInt(), 8);  // 8 batches + the open's batch 0
  (*server)->Stop();
}

TEST(ServerTest, StatsTraceHistoryIsBounded) {
  // A tenant records one "session.batch" span tree per batch; STATS must
  // serialise a bounded window of them, not the tenant's whole history.
  constexpr int kBatches = 200;
  auto server = RepairServer::Start(TestOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = RepairClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Send("OPEN bounded GEN client-buy 90 3").ok());
  for (int b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(client->SendBatch("bounded", MakeRows(0, b, 2)).ok()) << b;
  }
  auto stats = client->Send("STATS bounded");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto json = obs::Json::Parse(stats->body);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_GE(json->Find("session")->Find("batches_recorded")->AsInt(),
            kBatches);
  const obs::Json* trace = json->Find("trace");
  ASSERT_NE(trace, nullptr);
  const auto& roots = trace->AsArray();
  EXPECT_LE(roots.size(), obs::EventLane::kMaxRoots);
  ASSERT_FALSE(roots.empty());
  EXPECT_EQ(roots.back().Find("name")->AsString(), "session.batch");
  (*server)->Stop();
}

TEST(ServerTest, AdmissionControlCapsTenants) {
  ServerOptions options = TestOptions();
  options.max_tenants = 1;
  auto server = RepairServer::Start(options);
  ASSERT_TRUE(server.ok());

  auto client = RepairClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Send("OPEN only GEN client-buy 30 1").ok());
  // Same name again: AlreadyExists, not a capacity problem.
  EXPECT_EQ(client->Send("OPEN only GEN client-buy 30 1").status().code(),
            StatusCode::kAlreadyExists);
  // A second tenant: over capacity.
  EXPECT_EQ(client->Send("OPEN second GEN client-buy 30 1").status().code(),
            StatusCode::kResourceExhausted);
  // CLOSE frees the slot.
  ASSERT_TRUE(client->Send("CLOSE only").ok());
  EXPECT_TRUE(client->Send("OPEN second GEN client-buy 30 1").ok());
  (*server)->Stop();
}

TEST(ServerTest, ZeroPendingRejectsQueuedWorkButAnswersPing) {
  ServerOptions options = TestOptions();
  options.max_pending = 0;
  auto server = RepairServer::Start(options);
  ASSERT_TRUE(server.ok());

  auto client = RepairClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  // PING is answered inline by the connection thread, never queued.
  EXPECT_TRUE(client->Send("PING").ok());
  // Everything that needs the worker pool bounces off admission.
  EXPECT_EQ(client->Send("STATS").status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(client->Send("OPEN t GEN client-buy 30 1").status().code(),
            StatusCode::kResourceExhausted);
  (*server)->Stop();
}

TEST(ServerTest, UnknownTenantIsNotFoundEverywhere) {
  auto server = RepairServer::Start(TestOptions());
  ASSERT_TRUE(server.ok());
  auto client = RepairClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(client->Send("STATS ghost").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client->Send("SNAPSHOT ghost").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client->Send("MEASURE ghost").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client->Send("CLOSE ghost").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client->SendBatch("ghost", {"Client,1,2,3"}).status().code(),
            StatusCode::kNotFound);
  (*server)->Stop();
}

TEST(ServerTest, MalformedFramesGetErrRepliesNotCrashes) {
  ServerOptions options = TestOptions();
  options.limits.max_line_bytes = 256;  // make the oversized case cheap
  auto server = RepairServer::Start(options);
  ASSERT_TRUE(server.ok());
  auto client = RepairClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());

  // Unknown verbs, bad tenant names, truncated commands, binary junk.
  for (const std::string& garbage :
       {std::string("GARBAGE"), std::string("OPEN"),
        std::string("OPEN bad;name GEN client-buy 10 1"),
        std::string("BATCH t1"), std::string("BATCH t1 -5"),
        std::string("OPEN t1 FTP somewhere"), std::string("\x01\x02\x7f"),
        std::string("STATS a b c")}) {
    const auto reply = client->Send(garbage);
    EXPECT_FALSE(reply.ok()) << "accepted garbage: " << garbage;
  }
  // An oversized command line: ERR, and the connection stays aligned.
  EXPECT_EQ(client->Send("PING " + std::string(1000, 'A')).status().code(),
            StatusCode::kResourceExhausted);
  // A batch declaring more rows than the server will ever take.
  EXPECT_EQ(client->Send("BATCH t1 999999999").status().code(),
            StatusCode::kResourceExhausted);

  // After all that abuse the connection still works end to end.
  ASSERT_TRUE(client->Send("PING").ok());
  ASSERT_TRUE(client->Send("OPEN survivor GEN client-buy 30 1").ok());

  // Malformed payload rows: rejected before any insertion, tenant intact.
  EXPECT_EQ(client->SendBatch("survivor", {"Client,not-an-int,2,3"})
                .status()
                .code(),
            StatusCode::kParseError);
  EXPECT_EQ(client->SendBatch("survivor", {"NoSuchRelation,1,2,3"})
                .status()
                .code(),
            StatusCode::kNotFound);
  const auto measure = client->Send("MEASURE survivor");
  EXPECT_TRUE(measure.ok()) << measure.status().ToString();
  (*server)->Stop();
}

TEST(ServerTest, FailedOpenDoesNotLeakTheTenantName) {
  auto server = RepairServer::Start(TestOptions());
  ASSERT_TRUE(server.ok());
  auto client = RepairClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(client->Send("OPEN t GEN bogus-scenario 10 1").status().code(),
            StatusCode::kInvalidArgument);
  // The name is free again: a valid OPEN for it succeeds.
  EXPECT_TRUE(client->Send("OPEN t GEN client-buy 30 1").ok());
  (*server)->Stop();
}

TEST(ServerTest, OpensTenantFromConfigFile) {
  const std::string dir = ::testing::TempDir() + "/dbrepaird_config_test";
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  {
    std::ofstream csv(dir + "/paper.csv");
    csv << "ID,EF,PRC,CF\nB1,1,40,0\nC2,1,20,1\nE3,1,70,1\n";
  }
  {
    std::ofstream conf(dir + "/repair.conf");
    conf << "[relation Paper]\n"
            "attribute ID STRING key\n"
            "attribute EF INT flexible weight=1\n"
            "attribute PRC INT flexible weight=0.05\n"
            "attribute CF INT flexible weight=0.5\n"
            "data = " +
                dir +
                "/paper.csv\n"
                "\n"
                "[constraints]\n"
                "ic1: :- Paper(x, y, z, w), y > 0, z < 50\n"
                "\n"
                "[repair]\n"
                "solver = modified-greedy\n";
  }
  auto server = RepairServer::Start(TestOptions());
  ASSERT_TRUE(server.ok());
  auto client = RepairClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  const auto opened = client->Send("OPEN cfg CONFIG " + dir + "/repair.conf");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_NE(opened->body.find("tuples=3"), std::string::npos) << opened->body;
  EXPECT_TRUE(client->Send("MEASURE cfg").ok());
  // A missing config file fails the open cleanly.
  EXPECT_EQ(
      client->Send("OPEN nope CONFIG /nonexistent/x.conf").status().code(),
      StatusCode::kIoError);
  (*server)->Stop();
}

TEST(ServerTest, QuitEndsTheConnectionAndStopIsIdempotent) {
  auto server = RepairServer::Start(TestOptions());
  ASSERT_TRUE(server.ok());
  auto client = RepairClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  auto bye = client->Send("QUIT");
  ASSERT_TRUE(bye.ok());
  EXPECT_EQ(bye->body, "bye");
  // The server closed its side; the next exchange fails with an IO error.
  EXPECT_EQ(client->Send("PING").status().code(), StatusCode::kIoError);

  // Stop with another client mid-connection, then again via the destructor.
  auto lingering = RepairClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(lingering.ok());
  ASSERT_TRUE(lingering->Send("PING").ok());
  (*server)->Stop();
  (*server)->Stop();  // idempotent
  EXPECT_FALSE(lingering->Send("PING").ok());
}

}  // namespace
}  // namespace dbrepair::server
