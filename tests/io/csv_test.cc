#include "io/csv.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "gen/client_buy.h"
#include "gen/paper_example.h"

namespace dbrepair {
namespace {

TEST(ParseCsvLineTest, PlainFields) {
  EXPECT_EQ(ParseCsvLine("a,b,c", ',').value(),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(ParseCsvLine("a,,c", ',').value(),
            (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(ParseCsvLine("", ',').value(), (std::vector<std::string>{""}));
}

TEST(ParseCsvLineTest, QuotedFields) {
  EXPECT_EQ(ParseCsvLine("\"a,b\",c", ',').value(),
            (std::vector<std::string>{"a,b", "c"}));
  EXPECT_EQ(ParseCsvLine("\"he said \"\"hi\"\"\"", ',').value(),
            (std::vector<std::string>{"he said \"hi\""}));
}

TEST(ParseCsvLineTest, UnterminatedQuote) {
  EXPECT_FALSE(ParseCsvLine("\"open", ',').ok());
}

TEST(ParseCsvLineTest, CustomDelimiter) {
  EXPECT_EQ(ParseCsvLine("a;b", ';').value(),
            (std::vector<std::string>{"a", "b"}));
}

TEST(CsvLoadTest, LoadsTypedColumns) {
  Database db(MakeClientBuySchema());
  const auto n = LoadCsvString(&db, "Client",
                               "ID,A,C\n"
                               "1,20,30\n"
                               "2,40,50\n");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.value(), 2u);
  EXPECT_EQ(db.table(0).row(1).value(2), Value::Int(50));
}

TEST(CsvLoadTest, HeaderValidation) {
  Database db(MakeClientBuySchema());
  EXPECT_FALSE(LoadCsvString(&db, "Client", "ID,WRONG,C\n1,2,3\n").ok());
  EXPECT_FALSE(LoadCsvString(&db, "Client", "ID,A\n1,2\n").ok());
}

TEST(CsvLoadTest, NoHeaderMode) {
  Database db(MakeClientBuySchema());
  CsvOptions options;
  options.has_header = false;
  ASSERT_TRUE(LoadCsvString(&db, "Client", "1,20,30\n", options).ok());
  EXPECT_EQ(db.table(0).size(), 1u);
}

TEST(CsvLoadTest, EmptyFieldsBecomeNull) {
  Database db(MakeClientBuySchema());
  ASSERT_TRUE(LoadCsvString(&db, "Client", "ID,A,C\n1,,30\n").ok());
  EXPECT_TRUE(db.table(0).row(0).value(1).is_null());
}

TEST(CsvLoadTest, TypeErrorsAndUnknownRelation) {
  Database db(MakeClientBuySchema());
  EXPECT_FALSE(LoadCsvString(&db, "Client", "ID,A,C\nx,2,3\n").ok());
  EXPECT_FALSE(LoadCsvString(&db, "Nope", "A\n1\n").ok());
  EXPECT_FALSE(LoadCsvString(&db, "Client", "ID,A,C\n1,2\n").ok());
}

TEST(CsvLoadTest, DuplicateKeyRejected) {
  Database db(MakeClientBuySchema());
  EXPECT_EQ(
      LoadCsvString(&db, "Client", "ID,A,C\n1,2,3\n1,4,5\n").status().code(),
      StatusCode::kKeyViolation);
}

TEST(CsvRoundTripTest, WriteThenLoad) {
  const GeneratedWorkload w = MakePaperTableExample();
  const auto csv = WriteCsvString(w.db, "Paper");
  ASSERT_TRUE(csv.ok());
  Database reload(w.db.schema_ptr());
  const auto n = LoadCsvString(&reload, "Paper", csv.value());
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.value(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(reload.table(0).row(i), w.db.table(0).row(i));
  }
}

TEST(CsvRoundTripTest, DoublesKeepEveryBit) {
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
  const auto csv = WriteCsvString(db, "M");
  ASSERT_TRUE(csv.ok());
  Database reload(schema);
  ASSERT_TRUE(LoadCsvString(&reload, "M", csv.value()).ok());
  ASSERT_EQ(reload.table(0).size(), doubles.size());
  for (size_t i = 0; i < doubles.size(); ++i) {
    const double got = reload.table(0).row(i).value(1).AsDouble();
    EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(doubles[i]))
        << doubles[i] << " came back from \"" << csv.value() << "\"";
  }
}

TEST(CsvRoundTripTest, QuotingSurvivesRoundTrip) {
  auto schema = std::make_shared<Schema>();
  ASSERT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "S",
                      {AttributeDef{"K", Type::kInt64, false, 1.0},
                       AttributeDef{"Name", Type::kString, false, 1.0}},
                      {"K"}))
                  .ok());
  Database db(schema);
  ASSERT_TRUE(
      db.Insert("S", {Value::Int(1), Value::String("a,\"b\"\nc")}).ok());
  const auto csv = WriteCsvString(db, "S");
  ASSERT_TRUE(csv.ok());
  // The embedded newline splits records; our reader is line-based, so
  // values with newlines are a documented limitation — check comma/quote
  // quoting instead.
  Database db2(schema);
  ASSERT_TRUE(
      db2.Insert("S", {Value::Int(1), Value::String("a,\"b\" c")}).ok());
  const auto csv2 = WriteCsvString(db2, "S");
  ASSERT_TRUE(csv2.ok());
  Database reload(schema);
  ASSERT_TRUE(LoadCsvString(&reload, "S", csv2.value()).ok());
  EXPECT_EQ(reload.table(0).row(0).value(1), Value::String("a,\"b\" c"));
}

TEST(CsvFileTest, FileRoundTrip) {
  const GeneratedWorkload w = MakePaperTableExample();
  const std::string path = ::testing::TempDir() + "/paper_test.csv";
  ASSERT_TRUE(WriteCsvFile(w.db, "Paper", path).ok());
  Database reload(w.db.schema_ptr());
  const auto n = LoadCsvFile(&reload, "Paper", path);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 3u);
  EXPECT_FALSE(LoadCsvFile(&reload, "Paper", "/nonexistent/x.csv").ok());
}


TEST(ParseTypedCsvRowTest, ParsesAgainstTheSchema) {
  const GeneratedWorkload w = MakePaperTableExample();
  const auto row = ParseTypedCsvRow(w.db, "Paper, B9 , 2, 55, 1");
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ(row->relation, "Paper");
  ASSERT_EQ(row->values.size(), 4u);
  EXPECT_EQ(row->values[0], Value::String("B9"));
  EXPECT_EQ(row->values[1], Value::Int(2));
  EXPECT_EQ(row->values[2], Value::Int(55));
  EXPECT_EQ(row->values[3], Value::Int(1));
}

TEST(ParseTypedCsvRowTest, RejectsUnknownRelationArityAndType) {
  const GeneratedWorkload w = MakePaperTableExample();
  EXPECT_EQ(ParseTypedCsvRow(w.db, "Nope,1,2,3,4").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ParseTypedCsvRow(w.db, "Paper,B9,1").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseTypedCsvRow(w.db, "Paper,B9,1,40,0,9").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseTypedCsvRow(w.db, "Paper,B9,notanint,40,0").status().code(),
            StatusCode::kParseError);
}

}  // namespace
}  // namespace dbrepair
