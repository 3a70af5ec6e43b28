#include "obs/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>

namespace dbrepair::obs {
namespace {

TEST(JsonTest, DumpScalars) {
  EXPECT_EQ(Json().Dump(), "null");
  EXPECT_EQ(Json(nullptr).Dump(), "null");
  EXPECT_EQ(Json(true).Dump(), "true");
  EXPECT_EQ(Json(false).Dump(), "false");
  EXPECT_EQ(Json(int64_t{42}).Dump(), "42");
  EXPECT_EQ(Json(int64_t{-7}).Dump(), "-7");
  EXPECT_EQ(Json("hi").Dump(), "\"hi\"");
}

TEST(JsonTest, IntAndDoubleStayDistinct) {
  const Json i(int64_t{3});
  const Json d(3.0);
  EXPECT_TRUE(i.is_int());
  EXPECT_FALSE(i.is_double());
  EXPECT_TRUE(d.is_double());
  EXPECT_FALSE(d.is_int());
  // Doubles always reparse as doubles: a ".0" marker is kept.
  auto reparsed = Json::Parse(d.Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_TRUE(reparsed->is_double());
  auto reparsed_int = Json::Parse(i.Dump());
  ASSERT_TRUE(reparsed_int.ok());
  EXPECT_TRUE(reparsed_int->is_int());
  EXPECT_EQ(reparsed_int->AsInt(), 3);
}

TEST(JsonTest, AsDoubleWorksForInts) {
  EXPECT_DOUBLE_EQ(Json(int64_t{5}).AsDouble(), 5.0);
  EXPECT_DOUBLE_EQ(Json(2.5).AsDouble(), 2.5);
}

std::string Escaped(std::string_view s) {
  std::string out;
  JsonEscape(s, &out);
  return out;
}

TEST(JsonTest, EscapesSpecialCharacters) {
  EXPECT_EQ(Escaped("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(Escaped("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(Escaped("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(Escaped("line\n"), "\"line\\n\"");
  EXPECT_EQ(Escaped(std::string_view("nul\0byte", 8)), "\"nul\\u0000byte\"");
  // It appends: what `out` held before is kept.
  std::string out = "k=";
  JsonEscape("v", &out);
  EXPECT_EQ(out, "k=\"v\"");
}

// What Dump wrote for numbers before it used std::to_chars: printf's
// "%.17g" for a finite double, with ".0" appended when that has no '.',
// 'e' or 'E'; "null" for NaN and the infinities.
std::string ReferenceDouble(double d) {
  if (!std::isfinite(d)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", d);
  std::string text = buffer;
  if (text.find_first_of(".eE") == std::string::npos) text += ".0";
  return text;
}

TEST(JsonTest, DumpNumbersMatchPrintf) {
  const double edge[] = {0.0,
                         -0.0,
                         1.0,
                         -1.0,
                         1e21,
                         1e-7,
                         5e-324,
                         std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::min(),
                         std::numeric_limits<double>::max(),
                         -std::numeric_limits<double>::max(),
                         0.1 + 0.2,
                         1.0 / 3.0,
                         123456789012345678.0,
                         std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  for (const double d : edge) {
    EXPECT_EQ(Json(d).Dump(), ReferenceDouble(d)) << ReferenceDouble(d);
  }
  EXPECT_EQ(Json(5e-324).Dump(), "4.9406564584124654e-324");
  EXPECT_EQ(Json(std::nan("")).Dump(), "null");
  // Seeded sweep: uniform bit patterns reach every exponent, subnormals and
  // NaN payloads included; values in [-1e6, 1e6] are the common case.
  std::mt19937_64 rng(20071);
  std::uniform_real_distribution<double> common(-1e6, 1e6);
  for (int i = 0; i < 100'000; ++i) {
    const uint64_t bits = rng();
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    ASSERT_EQ(Json(d).Dump(), ReferenceDouble(d)) << ReferenceDouble(d);
    const double c = common(rng);
    ASSERT_EQ(Json(c).Dump(), ReferenceDouble(c)) << ReferenceDouble(c);
  }
  for (const int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1234567890123},
                          std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(Json(v).Dump(), std::to_string(v));
  }
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  Json obj = Json::MakeObject();
  obj.Set("zebra", Json(int64_t{1}));
  obj.Set("apple", Json(int64_t{2}));
  obj.Set("mango", Json(int64_t{3}));
  EXPECT_EQ(obj.Dump(), "{\"zebra\":1,\"apple\":2,\"mango\":3}");
  // Replacing a key keeps its slot.
  obj.Set("apple", Json(int64_t{9}));
  EXPECT_EQ(obj.Dump(), "{\"zebra\":1,\"apple\":9,\"mango\":3}");
}

TEST(JsonTest, FindReturnsNullptrWhenAbsent) {
  Json obj = Json::MakeObject();
  obj.Set("present", Json(true));
  ASSERT_NE(obj.Find("present"), nullptr);
  EXPECT_TRUE(obj.Find("present")->AsBool());
  EXPECT_EQ(obj.Find("absent"), nullptr);
  EXPECT_EQ(Json(int64_t{1}).Find("anything"), nullptr);
}

TEST(JsonTest, ParseRoundTripsNestedDocument) {
  Json doc = Json::MakeObject();
  doc.Set("name", Json("repair"));
  doc.Set("count", Json(int64_t{12}));
  doc.Set("ratio", Json(0.25));
  Json arr = Json::MakeArray();
  arr.Append(Json(int64_t{1}));
  arr.Append(Json(nullptr));
  arr.Append(Json("x\"y"));
  doc.Set("items", std::move(arr));
  Json inner = Json::MakeObject();
  inner.Set("ok", Json(true));
  doc.Set("inner", std::move(inner));

  for (const int indent : {-1, 0, 2}) {
    auto parsed = Json::Parse(doc.Dump(indent));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(*parsed, doc) << "indent=" << indent;
  }
}

TEST(JsonTest, ParseHandlesEscapesAndUnicode) {
  auto parsed = Json::Parse(R"("a\"b\\c\/d\n\tA")");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->AsString(), "a\"b\\c/d\n\tA");
}

TEST(JsonTest, ParseNumbers) {
  auto i = Json::Parse("-12");
  ASSERT_TRUE(i.ok());
  EXPECT_TRUE(i->is_int());
  EXPECT_EQ(i->AsInt(), -12);

  auto d = Json::Parse("1.5e2");
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->is_double());
  EXPECT_DOUBLE_EQ(d->AsDouble(), 150.0);
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":1,}").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());  // trailing content
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
}

TEST(JsonTest, PrettyPrintIndents) {
  Json obj = Json::MakeObject();
  obj.Set("a", Json(int64_t{1}));
  const std::string pretty = obj.Dump(2);
  EXPECT_NE(pretty.find("{\n  \"a\": 1\n}"), std::string::npos) << pretty;
}

}  // namespace
}  // namespace dbrepair::obs
