#include "io/export.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/strings.h"
#include "gen/paper_example.h"
#include "repair/api.h"

namespace dbrepair {
namespace {

class ExportTest : public ::testing::Test {
 protected:
  ExportTest() : workload_(MakePaperTableExample()) {
    RepairOptions options;
    options.solver = SolverKind::kExact;
    auto outcome = RepairDatabase(workload_.db, workload_.ics, options);
    EXPECT_TRUE(outcome.ok());
    outcome_ = std::make_unique<RepairOutcome>(std::move(outcome).value());
  }

  GeneratedWorkload workload_;
  std::unique_ptr<RepairOutcome> outcome_;
};

TEST_F(ExportTest, UpdateStatementsPatchByKey) {
  const auto sql = ExportRepair(outcome_->repaired, outcome_->updates,
                                ExportMode::kUpdateStatements);
  ASSERT_TRUE(sql.ok());
  // One UPDATE per applied update, addressed by primary key.
  EXPECT_NE(sql->find("UPDATE Paper SET"), std::string::npos);
  EXPECT_NE(sql->find("WHERE ID = 'B1'"), std::string::npos);
  const size_t lines = std::count(sql->begin(), sql->end(), '\n');
  EXPECT_EQ(lines, outcome_->updates.size());
}

TEST_F(ExportTest, InsertStatementsCoverAllTuples) {
  const auto sql = ExportRepair(outcome_->repaired, outcome_->updates,
                                ExportMode::kInsertStatements);
  ASSERT_TRUE(sql.ok());
  const size_t lines = std::count(sql->begin(), sql->end(), '\n');
  EXPECT_EQ(lines, outcome_->repaired.TotalTuples());
  EXPECT_NE(sql->find("INSERT INTO Paper (ID, EF, PRC, CF) VALUES"),
            std::string::npos);
}

TEST_F(ExportTest, DumpListsRelations) {
  const auto dump =
      ExportRepair(outcome_->repaired, outcome_->updates, ExportMode::kDump);
  ASSERT_TRUE(dump.ok());
  EXPECT_NE(dump->find("-- Paper (3 tuples)"), std::string::npos);
  EXPECT_NE(dump->find("Paper('E3', 1, 70, 1)"), std::string::npos);
}

TEST_F(ExportTest, StringLiteralEscaping) {
  auto schema = std::make_shared<Schema>();
  ASSERT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "S",
                      {AttributeDef{"K", Type::kInt64, false, 1.0},
                       AttributeDef{"N", Type::kString, false, 1.0}},
                      {"K"}))
                  .ok());
  Database db(schema);
  ASSERT_TRUE(db.Insert("S", {Value::Int(1), Value::String("O'Brien")}).ok());
  const auto sql = ExportRepair(db, {}, ExportMode::kInsertStatements);
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find("'O''Brien'"), std::string::npos);
}

// Every DOUBLE literal in the INSERT and dump exports reads back as the
// same bits: one row per value, whose literal is the text between the
// row's ", " and its closing ")".
TEST(ExportDoubleTest, LiteralsRoundTrip) {
  auto schema = std::make_shared<Schema>();
  ASSERT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "M",
                      {AttributeDef{"K", Type::kInt64, false, 1.0},
                       AttributeDef{"X", Type::kDouble, false, 1.0}},
                      {"K"}))
                  .ok());
  const std::vector<double> doubles = {0.1234567891, 1e-7, 1e300, -2.5};
  Database db(schema);
  for (size_t i = 0; i < doubles.size(); ++i) {
    ASSERT_TRUE(db.Insert("M", {Value::Int(static_cast<int64_t>(i)),
                                Value::Double(doubles[i])})
                    .ok());
  }
  for (const ExportMode mode :
       {ExportMode::kInsertStatements, ExportMode::kDump}) {
    const auto text = ExportRepair(db, {}, mode);
    ASSERT_TRUE(text.ok());
    std::vector<double> read_back;
    for (const std::string& line : Split(text.value(), '\n')) {
      const size_t close = line.rfind(')');
      const size_t comma = line.rfind(", ", close);
      if (close == std::string::npos || comma == std::string::npos) continue;
      const auto value =
          ParseDouble(line.substr(comma + 2, close - comma - 2));
      ASSERT_TRUE(value.ok()) << line;
      read_back.push_back(value.value());
    }
    ASSERT_EQ(read_back.size(), doubles.size()) << text.value();
    for (size_t i = 0; i < doubles.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(read_back[i]),
                std::bit_cast<uint64_t>(doubles[i]))
          << ExportModeName(mode) << ": " << text.value();
    }
  }
}

TEST(ExportModeTest, ParseAndName) {
  EXPECT_EQ(ParseExportMode("update").value(), ExportMode::kUpdateStatements);
  EXPECT_EQ(ParseExportMode("INSERT").value(), ExportMode::kInsertStatements);
  EXPECT_EQ(ParseExportMode("dump").value(), ExportMode::kDump);
  EXPECT_FALSE(ParseExportMode("xml").ok());
  EXPECT_STREQ(ExportModeName(ExportMode::kDump), "dump");
}

TEST(WriteTextFileTest, WritesAndFails) {
  const std::string path = ::testing::TempDir() + "/export_test.txt";
  ASSERT_TRUE(WriteTextFile(path, "hello").ok());
  EXPECT_FALSE(WriteTextFile("/nonexistent/dir/x.txt", "y").ok());
}

}  // namespace
}  // namespace dbrepair
