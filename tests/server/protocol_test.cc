#include "server/protocol.h"

#include <gtest/gtest.h>

#include "repair/api.h"

namespace dbrepair::server {
namespace {

TEST(ParseCommandTest, ParsesEveryVerb) {
  EXPECT_EQ(ParseCommand("PING")->verb, Verb::kPing);
  EXPECT_EQ(ParseCommand("QUIT")->verb, Verb::kQuit);
  EXPECT_EQ(ParseCommand("CLOSE t1")->verb, Verb::kClose);
  EXPECT_EQ(ParseCommand("SNAPSHOT t1")->verb, Verb::kSnapshot);
  EXPECT_EQ(ParseCommand("MEASURE t1")->verb, Verb::kMeasure);

  const auto open = ParseCommand("OPEN t1 GEN client-buy 100 7");
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open->verb, Verb::kOpen);
  EXPECT_EQ(open->tenant, "t1");
  EXPECT_EQ(open->args,
            (std::vector<std::string>{"GEN", "client-buy", "100", "7"}));

  const auto batch = ParseCommand("BATCH t1 42");
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->verb, Verb::kBatch);
  EXPECT_EQ(batch->tenant, "t1");
  EXPECT_EQ(batch->batch_rows, 42u);

  const auto stats = ParseCommand("STATS");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->verb, Verb::kStats);
  EXPECT_TRUE(stats->tenant.empty());
  EXPECT_EQ(ParseCommand("STATS t1")->tenant, "t1");
}

TEST(ParseCommandTest, TokenizesOnRunsOfWhitespace) {
  const auto cmd = ParseCommand("  BATCH \t t1   3 ");
  ASSERT_TRUE(cmd.ok());
  EXPECT_EQ(cmd->tenant, "t1");
  EXPECT_EQ(cmd->batch_rows, 3u);
}

TEST(ParseCommandTest, RejectsMalformedLines) {
  EXPECT_EQ(ParseCommand("").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseCommand("NOPE x").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseCommand("BATCH t1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseCommand("BATCH t1 -3").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseCommand("BATCH t1 xyz").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseCommand("OPEN t1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseCommand("PING extra").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseCommand("STATS a b").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TenantNameTest, LocksDownTheCharset) {
  EXPECT_TRUE(IsValidTenantName("t1"));
  EXPECT_TRUE(IsValidTenantName("acme.prod-7_x"));
  EXPECT_FALSE(IsValidTenantName(""));
  EXPECT_FALSE(IsValidTenantName("has space"));
  EXPECT_FALSE(IsValidTenantName("semi;colon"));
  EXPECT_FALSE(IsValidTenantName("new\nline"));
  EXPECT_FALSE(IsValidTenantName(std::string(65, 'a')));
  EXPECT_TRUE(IsValidTenantName(std::string(64, 'a')));

  EXPECT_EQ(ParseCommand("CLOSE bad;name").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ParseOpenSpecTest, GenSourceWithOptions) {
  const auto spec = ParseOpenSpec({"GEN", "zipf-hotspot", "500", "9",
                                   "solver=greedy", "distance=L2", "threads=2",
                                   "ratio=0.5", "skew=1.5", "degree=4"});
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->source, OpenSpec::Source::kGen);
  EXPECT_EQ(spec->scenario.name, "zipf-hotspot");
  EXPECT_EQ(spec->scenario.rows, 500u);
  EXPECT_EQ(spec->scenario.seed, 9u);
  EXPECT_DOUBLE_EQ(spec->scenario.ratio, 0.5);
  EXPECT_DOUBLE_EQ(spec->scenario.skew, 1.5);
  EXPECT_EQ(spec->scenario.degree, 4u);
  EXPECT_EQ(spec->options.solver, SolverKind::kGreedy);
  EXPECT_EQ(spec->options.distance, DistanceKind::kL2);
  EXPECT_EQ(spec->options.num_threads, 2u);
  EXPECT_TRUE(spec->solver_set);
  EXPECT_TRUE(spec->distance_set);
}

TEST(ParseOpenSpecTest, DefaultsToOneThreadAndConfigFallback) {
  const auto spec = ParseOpenSpec({"CONFIG", "/tmp/x.conf"});
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->source, OpenSpec::Source::kConfig);
  EXPECT_EQ(spec->config_path, "/tmp/x.conf");
  // The server scales across tenants, not within one.
  EXPECT_EQ(spec->options.num_threads, 1u);
  // Unset solver/distance let a CONFIG source apply the file's choices.
  EXPECT_FALSE(spec->solver_set);
  EXPECT_FALSE(spec->distance_set);
}

TEST(ParseOpenSpecTest, RejectsBadSpecs) {
  EXPECT_EQ(ParseOpenSpec({}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseOpenSpec({"FTP", "x"}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseOpenSpec({"GEN", "client-buy"}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseOpenSpec({"GEN", "client-buy", "0", "1"}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseOpenSpec({"CONFIG"}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      ParseOpenSpec({"GEN", "client-buy", "10", "1", "noequals"}).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseOpenSpec({"GEN", "client-buy", "10", "1", "solver=warp"})
                .status()
                .code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseOpenSpec({"GEN", "client-buy", "10", "1", "degree=0"})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ParseOpenSpecTest, RejectsRemovedComponentsOption) {
  // The solve path follows the solver kind; there is no sharding switch.
  const auto spec =
      ParseOpenSpec({"GEN", "client-buy", "10", "1", "components=1"});
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(spec.status().message().find("unknown OPEN option 'components'"),
            std::string::npos)
      << spec.status().ToString();
}

TEST(ParseOpenSpecTest, RejectsRemovedColumnarOption) {
  // Every constraint runs on the one columnar scan; there is no switch.
  for (const char* option : {"columnar=0", "columnar=1"}) {
    const auto spec = ParseOpenSpec({"GEN", "client-buy", "10", "1", option});
    ASSERT_FALSE(spec.ok()) << option;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(spec.status().message().find("unknown OPEN option 'columnar'"),
              std::string::npos)
        << spec.status().ToString();
    EXPECT_EQ(spec.status().message().find("columnar,"), std::string::npos)
        << "the option list still offers columnar: "
        << spec.status().ToString();
  }
}

TEST(FormatTest, RepliesAreSingleFrames) {
  EXPECT_EQ(FormatOk(""), "OK\n");
  EXPECT_EQ(FormatOk("pong"), "OK pong\n");
  EXPECT_EQ(FormatData("abc"), "DATA 3\nabc\n");
  EXPECT_EQ(FormatData(""), "DATA 0\n\n");
}

TEST(FormatTest, ErrorsUseWireCodesAndStayOneLine) {
  EXPECT_EQ(FormatError(Status::NotFound("unknown tenant 'x'")),
            "ERR NotFound unknown tenant 'x'\n");
  // Embedded newlines must not break the framing.
  EXPECT_EQ(FormatError(Status::InvalidArgument("a\nb\rc")),
            "ERR InvalidArgument a b c\n");
  // An empty message still yields a parseable reply.
  EXPECT_EQ(FormatError(Status::Internal("")), "ERR Internal Internal\n");
}

}  // namespace
}  // namespace dbrepair::server
