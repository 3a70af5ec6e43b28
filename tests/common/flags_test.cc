// Tests for the shared FlagSet parser and the canonical flag spellings the
// CLI and the benchmark binaries must agree on.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/flags.h"

namespace dbrepair {
namespace {

// Builds a mutable argv from string literals for Parse().
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    for (std::string& s : storage_) pointers_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

TEST(FlagsTest, ParsesEveryKind) {
  bool flag = false;
  std::string name;
  size_t count = 0;
  FlagSet flags;
  flags.AddBool("--flag", &flag, "a bool");
  flags.AddString("--name", &name, "a string");
  flags.AddSize("--count", &count, "a size");

  Argv argv({"prog", "--flag", "--name", "alpha", "--count", "42"});
  ASSERT_TRUE(flags.Parse(argv.argc(), argv.argv(), 1).ok());
  EXPECT_TRUE(flag);
  EXPECT_EQ(name, "alpha");
  EXPECT_EQ(count, 42u);
}

TEST(FlagsTest, DefaultsSurviveWhenFlagsAbsent) {
  bool flag = false;
  size_t count = 7;
  FlagSet flags;
  flags.AddBool("--flag", &flag, "a bool");
  flags.AddSize("--count", &count, "a size");
  Argv argv({"prog"});
  ASSERT_TRUE(flags.Parse(argv.argc(), argv.argv(), 1).ok());
  EXPECT_FALSE(flag);
  EXPECT_EQ(count, 7u);
}

TEST(FlagsTest, CollectsPositionalsWhenAsked) {
  size_t count = 0;
  FlagSet flags;
  flags.AddSize("--count", &count, "a size");
  Argv argv({"prog", "one", "--count", "3", "two"});
  std::vector<std::string> positional;
  ASSERT_TRUE(flags.Parse(argv.argc(), argv.argv(), 1, &positional).ok());
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(positional, (std::vector<std::string>{"one", "two"}));
}

TEST(FlagsTest, RejectsPositionalsWhenNotAsked) {
  FlagSet flags;
  Argv argv({"prog", "stray"});
  const Status status = flags.Parse(argv.argc(), argv.argv(), 1);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("stray"), std::string::npos);
}

TEST(FlagsTest, NamesTheOffendingFlag) {
  size_t count = 0;
  FlagSet flags;
  flags.AddSize("--count", &count, "a size");

  Argv unknown({"prog", "--bogus"});
  const Status unknown_status = flags.Parse(unknown.argc(), unknown.argv(), 1);
  EXPECT_EQ(unknown_status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown_status.message().find("--bogus"), std::string::npos);

  Argv missing({"prog", "--count"});
  EXPECT_EQ(flags.Parse(missing.argc(), missing.argv(), 1).code(),
            StatusCode::kInvalidArgument);

  Argv garbage({"prog", "--count", "not-a-number"});
  EXPECT_EQ(flags.Parse(garbage.argc(), garbage.argv(), 1).code(),
            StatusCode::kInvalidArgument);

  Argv negative({"prog", "--count", "-3"});
  EXPECT_EQ(flags.Parse(negative.argc(), negative.argv(), 1).code(),
            StatusCode::kInvalidArgument);
}

TEST(FlagsTest, UsageListsEveryFlag) {
  bool flag = false;
  size_t count = 0;
  FlagSet flags;
  flags.AddBool("--flag", &flag, "the bool help");
  flags.AddSize("--count", &count, "the size help");
  const std::string usage = flags.Usage();
  EXPECT_NE(usage.find("--flag"), std::string::npos);
  EXPECT_NE(usage.find("the bool help"), std::string::npos);
  EXPECT_NE(usage.find("--count"), std::string::npos);
  EXPECT_NE(usage.find("the size help"), std::string::npos);
}

TEST(FlagsTest, CanonicalSpellingsAreStable) {
  // The CLI and bench_figure2_approximation reference these constants; a
  // spelling change is an interface break.
  EXPECT_STREQ(kFlagThreads, "--threads");
  EXPECT_STREQ(kFlagSolver, "--solver");
}

}  // namespace
}  // namespace dbrepair
