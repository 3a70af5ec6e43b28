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
  // A blank delimiter still separates fields before a quoted one.
  EXPECT_EQ(ParseCsvLine("a\t\t\"b\"", '\t').value(),
            (std::vector<std::string>{"a", "", "b"}));
}

TEST(ParseCsvLineTest, QuotedFieldsKeepTheirText) {
  EXPECT_EQ(ParseCsvLine(" \" a \" ,\"\",b \"c", ',').value(),
            (std::vector<std::string>{" a ", "", "b \"c"}));
  EXPECT_EQ(ParseCsvLine("\"x\ny\",z", ',').value(),
            (std::vector<std::string>{"x\ny", "z"}));
  EXPECT_EQ(ParseCsvLine("\"\"\"\"", ',').value(),
            (std::vector<std::string>{"\""}));
  EXPECT_FALSE(ParseCsvLine("\"a\"b", ',').ok());
  EXPECT_FALSE(ParseCsvLine("a\nb", ',').ok());
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
  // A quoted newline is text, not the end of the record.
  Database reload1(schema);
  ASSERT_TRUE(LoadCsvString(&reload1, "S", csv.value()).ok());
  ASSERT_EQ(reload1.table(0).size(), 1u);
  EXPECT_EQ(reload1.table(0).row(0).value(1),
            Value::String("a,\"b\"\nc"));
  Database db2(schema);
  ASSERT_TRUE(
      db2.Insert("S", {Value::Int(1), Value::String("a,\"b\" c")}).ok());
  const auto csv2 = WriteCsvString(db2, "S");
  ASSERT_TRUE(csv2.ok());
  Database reload(schema);
  ASSERT_TRUE(LoadCsvString(&reload, "S", csv2.value()).ok());
  EXPECT_EQ(reload.table(0).row(0).value(1), Value::String("a,\"b\" c"));
}

// K INT key, S STRING, T STRING.
std::shared_ptr<Schema> StringSchema() {
  auto schema = std::make_shared<Schema>();
  EXPECT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "S",
                      {AttributeDef{"K", Type::kInt64, false, 1.0},
                       AttributeDef{"S", Type::kString, false, 1.0},
                       AttributeDef{"T", Type::kString, false, 1.0}},
                      {"K"}))
                  .ok());
  return schema;
}

TEST(CsvRoundTripTest, StringsComeBackVerbatim) {
  const auto schema = StringSchema();
  const std::vector<std::string> strings = {"",    " a ", "x\ny", "\r",
                                            "a\r\nb", "\"", " ",   "tab\t"};
  Database db(schema);
  for (size_t i = 0; i < strings.size(); ++i) {
    ASSERT_TRUE(db.Insert("S", {Value::Int(static_cast<int64_t>(i)),
                                Value::String(strings[i]), Value()})
                    .ok());
  }
  const auto csv = WriteCsvString(db, "S");
  ASSERT_TRUE(csv.ok());
  Database reload(schema);
  const auto n = LoadCsvString(&reload, "S", csv.value());
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  ASSERT_EQ(n.value(), strings.size());
  for (size_t i = 0; i < strings.size(); ++i) {
    EXPECT_EQ(reload.table(0).row(i).value(1), Value::String(strings[i]))
        << "string " << i << " came back from \"" << csv.value() << "\"";
    EXPECT_TRUE(reload.table(0).row(i).value(2).is_null()) << i;
  }
}

TEST(CsvLoadTest, QuotedStringsAreVerbatimAndUnquotedOnesTrimmed) {
  Database db(StringSchema());
  const auto n = LoadCsvString(&db, "S",
                               "K,S,T\n"
                               "1,\" a \", a \n"
                               "2,\"\",\n"
                               "3, \"x\" ,\"\"\n");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  const Table& table = db.table(0);
  EXPECT_EQ(table.row(0).value(1), Value::String(" a "));
  EXPECT_EQ(table.row(0).value(2), Value::String("a"));
  // A quoted empty field is the empty string, an unquoted one NULL.
  EXPECT_EQ(table.row(1).value(1), Value::String(""));
  EXPECT_TRUE(table.row(1).value(2).is_null());
  // Blanks around the quotes are not part of the field.
  EXPECT_EQ(table.row(2).value(1), Value::String("x"));
  EXPECT_EQ(table.row(2).value(2), Value::String(""));
}

TEST(CsvLoadTest, QuotedEmptyNumberIsNull) {
  Database db(MakeClientBuySchema());
  ASSERT_TRUE(LoadCsvString(&db, "Client", "ID,A,C\n1,\"\",\" 7 \"\n").ok());
  EXPECT_TRUE(db.table(0).row(0).value(1).is_null());
  EXPECT_EQ(db.table(0).row(0).value(2), Value::Int(7));
}

TEST(CsvLoadTest, CrlfInput) {
  Database db(StringSchema());
  const auto n = LoadCsvString(&db, "S",
                               "K,S,T\r\n"
                               "1,a,b\r\n"
                               "\r\n"
                               "2,\"c\r\nd\",\"e\"\r\n"
                               "3,f,\r\n");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  ASSERT_EQ(n.value(), 3u);
  const Table& table = db.table(0);
  EXPECT_EQ(table.row(0).value(2), Value::String("b"));
  EXPECT_EQ(table.row(1).value(1), Value::String("c\r\nd"));
  EXPECT_EQ(table.row(1).value(2), Value::String("e"));
  EXPECT_TRUE(table.row(2).value(2).is_null());
}

TEST(CsvLoadTest, ErrorsCountPhysicalLines) {
  Database db(StringSchema());
  const auto n = LoadCsvString(&db, "S",
                               "K,S,T\n"
                               "1,\"two\nlines\",x\n"
                               "\n"
                               "2,y\n");
  ASSERT_FALSE(n.ok());
  EXPECT_NE(n.status().message().find("CSV line 5 "), std::string::npos)
      << n.status().ToString();
  const auto bad = LoadCsvString(&db, "S", "K,S,T\n1,a,b\nx,a,b\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("CSV line 3: "), std::string::npos)
      << bad.status().ToString();
  EXPECT_EQ(LoadCsvString(&db, "S", "K,S,T\n1,\"a\"b,c\n").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(LoadCsvString(&db, "S", "K,S,T\n1,\"open,c\n2,d,e\n")
                .status()
                .code(),
            StatusCode::kParseError);
  EXPECT_EQ(db.table(0).size(), 0u);
}

// All-or-nothing loads: Client starts with three rows (ids 1-3); each load
// below fails, and must leave those rows, their cells and their key lookups
// exactly as they were, with the next good row landing at index 3.
class CsvAllOrNothingTest : public ::testing::Test {
 protected:
  CsvAllOrNothingTest() : db_(MakeClientBuySchema()) {
    for (int64_t id = 1; id <= 3; ++id) {
      EXPECT_TRUE(db_.Insert("Client", {Value::Int(id), Value::Int(10 * id),
                                        Value::Int(100 * id)})
                      .ok());
    }
  }

  // "ID,A,C" then rows (id, id % 90, id % 70) for ids [first, last].
  static std::string Rows(int64_t first, int64_t last) {
    std::string csv = "ID,A,C\n";
    for (int64_t id = first; id <= last; ++id) {
      csv += std::to_string(id) + "," + std::to_string(id % 90) + "," +
             std::to_string(id % 70) + "\n";
    }
    return csv;
  }

  void ExpectLoadFailsAndChangesNothing(const std::string& csv,
                                        StatusCode code) {
    const auto n = LoadCsvString(&db_, "Client", csv);
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.status().code(), code) << n.status().ToString();
    const Table& table = db_.table(0);
    ASSERT_EQ(table.size(), 3u);
    for (int64_t id = 1; id <= 3; ++id) {
      const size_t row = static_cast<size_t>(id - 1);
      EXPECT_TRUE(table.row(row) ==
                  Tuple({Value::Int(id), Value::Int(10 * id),
                         Value::Int(100 * id)}));
      EXPECT_EQ(table.LookupByKey({Value::Int(id)}).value(), row);
    }
    for (const int64_t id : {int64_t{4}, int64_t{4097}, int64_t{9000}}) {
      EXPECT_FALSE(table.LookupByKey({Value::Int(id)}).ok()) << id;
    }
    const auto next = db_.Insert("Client", {Value::Int(4), Value::Int(0),
                                            Value::Int(0)});
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    EXPECT_EQ(next->row, 3u);
  }

  Database db_;
};

TEST_F(CsvAllOrNothingTest, DuplicateKeyWithinTheFile) {
  ExpectLoadFailsAndChangesNothing(Rows(10, 20) + "15,0,0\n",
                                   StatusCode::kKeyViolation);
}

TEST_F(CsvAllOrNothingTest, DuplicateKeyOfARowAlreadyInTheTable) {
  ExpectLoadFailsAndChangesNothing(Rows(10, 20) + "2,0,0\n",
                                   StatusCode::kKeyViolation);
}

TEST_F(CsvAllOrNothingTest, DuplicateKeyAcrossAChunkBoundary) {
  // Ids 10..4105 fill the first 4096-row chunk; 4110 opens the second, and
  // its duplicate of id 20 fails only after the first chunk is appended.
  ExpectLoadFailsAndChangesNothing(Rows(10, 4105) + "4110,0,0\n20,0,0\n",
                                   StatusCode::kKeyViolation);
}

TEST_F(CsvAllOrNothingTest, TypeErrorInTheLastCell) {
  ExpectLoadFailsAndChangesNothing(Rows(10, 9000) + "9001,1,x\n",
                                   StatusCode::kParseError);
}

TEST_F(CsvAllOrNothingTest, BadFieldCountInTheSecondChunk) {
  ExpectLoadFailsAndChangesNothing(Rows(10, 5000) + "5001,1\n" +
                                       Rows(6000, 6010).substr(7),
                                   StatusCode::kParseError);
}

TEST(CsvLoadTest, ManyChunksMatchPerRowInserts) {
  std::string csv = "ID,I,P\n";
  Database inserted(MakeClientBuySchema());
  for (int64_t i = 0; i < 12'345; ++i) {
    const int64_t id = i / 3;
    const int64_t p = (i * 37) % 101;
    csv += std::to_string(id) + "," + std::to_string(i % 3) + "," +
           (i % 10 == 0 ? "" : std::to_string(p)) + "\n";
    ASSERT_TRUE(inserted
                    .Insert("Buy", {Value::Int(id), Value::Int(i % 3),
                                    i % 10 == 0 ? Value() : Value::Int(p)})
                    .ok());
  }
  Database loaded(MakeClientBuySchema());
  const auto n = LoadCsvString(&loaded, "Buy", csv);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.value(), 12'345u);
  const Table& want = inserted.table(1);
  const Table& got = loaded.table(1);
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_TRUE(got.row(r) == want.row(r)) << r;
    const std::vector<Value> key = {want.row(r).value(0), want.row(r).value(1)};
    EXPECT_EQ(got.LookupByKey(key).value(), r);
  }
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

TEST(ParseTypedCsvRowTest, QuotedFieldsFollowTheLoaderRules) {
  const GeneratedWorkload w = MakePaperTableExample();
  const auto row = ParseTypedCsvRow(w.db, "Paper,\" B,9 \",\"2\",,1\r");
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ(row->values[0], Value::String(" B,9 "));
  EXPECT_EQ(row->values[1], Value::Int(2));
  EXPECT_TRUE(row->values[2].is_null());
  const auto empty = ParseTypedCsvRow(w.db, "Paper,\"\",1,2,3");
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(empty->values[0], Value::String(""));
  EXPECT_EQ(ParseTypedCsvRow(w.db, "Paper,\"B9,1,2,3").status().code(),
            StatusCode::kParseError);
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
