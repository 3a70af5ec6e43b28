#include "catalog/value.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace dbrepair {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(v.is_int());
  EXPECT_EQ(v.ToString(), "NULL");
}

TEST(ValueTest, IntRoundTrip) {
  const Value v = Value::Int(-42);
  ASSERT_TRUE(v.is_int());
  EXPECT_EQ(v.AsInt(), -42);
  EXPECT_EQ(v.ToString(), "-42");
  EXPECT_DOUBLE_EQ(v.AsNumeric(), -42.0);
}

TEST(ValueTest, DoubleRoundTrip) {
  const Value v = Value::Double(1.5);
  ASSERT_TRUE(v.is_double());
  EXPECT_DOUBLE_EQ(v.AsDouble(), 1.5);
  EXPECT_DOUBLE_EQ(v.AsNumeric(), 1.5);
}

TEST(ValueTest, StringRoundTrip) {
  const Value v = Value::String("abc");
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.AsString(), "abc");
  EXPECT_EQ(v.ToString(), "'abc'");
}

TEST(ValueTest, EqualityWithinTypes) {
  EXPECT_EQ(Value::Int(3), Value::Int(3));
  EXPECT_NE(Value::Int(3), Value::Int(4));
  EXPECT_EQ(Value::String("a"), Value::String("a"));
  EXPECT_NE(Value::String("a"), Value::String("b"));
  EXPECT_EQ(Value(), Value());
}

TEST(ValueTest, MixedNumericEquality) {
  EXPECT_EQ(Value::Int(3), Value::Double(3.0));
  EXPECT_EQ(Value::Double(3.0), Value::Int(3));
  EXPECT_NE(Value::Int(3), Value::Double(3.5));
}

TEST(ValueTest, CrossKindInequality) {
  EXPECT_NE(Value::Int(3), Value::String("3"));
  EXPECT_NE(Value(), Value::Int(0));
  EXPECT_NE(Value(), Value::String(""));
}

TEST(ValueTest, CompareNumbers) {
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_GT(Value::Int(2).Compare(Value::Int(1)), 0);
  EXPECT_EQ(Value::Int(2).Compare(Value::Int(2)), 0);
  EXPECT_LT(Value::Int(1).Compare(Value::Double(1.5)), 0);
  EXPECT_GT(Value::Double(2.5).Compare(Value::Int(2)), 0);
}

TEST(ValueTest, CompareStrings) {
  EXPECT_LT(Value::String("a").Compare(Value::String("b")), 0);
  EXPECT_EQ(Value::String("a").Compare(Value::String("a")), 0);
  EXPECT_GT(Value::String("b").Compare(Value::String("a")), 0);
}

TEST(ValueTest, CompareAcrossRanks) {
  // NULL < numeric < string.
  EXPECT_LT(Value().Compare(Value::Int(0)), 0);
  EXPECT_LT(Value::Int(999).Compare(Value::String("")), 0);
  EXPECT_GT(Value::String("x").Compare(Value::Double(1e9)), 0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(7).Hash(), Value::Double(7.0).Hash());
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
  EXPECT_EQ(Value().Hash(), Value().Hash());
}

// The invariant hash-keyed containers (the engine's join indexes, the
// table's key index) rely on: whenever two Values compare equal, they hash
// equal — in particular an int and the integral double holding the same
// number.
TEST(ValueTest, IntAndIntegralDoubleHashEqual) {
  const int64_t cases[] = {0,          1,     -1,        17,      -42,
                           1 << 20,    -(1 << 20),       1062599, 25,
                           (int64_t{1} << 53) - 1,       -((int64_t{1} << 53) - 1)};
  for (const int64_t i : cases) {
    const Value as_int = Value::Int(i);
    const Value as_double = Value::Double(static_cast<double>(i));
    ASSERT_TRUE(as_int == as_double) << i;
    EXPECT_EQ(as_int.Hash(), as_double.Hash()) << i;
  }
  // -0.0 equals 0 and must land in the same bucket.
  ASSERT_TRUE(Value::Int(0) == Value::Double(-0.0));
  EXPECT_EQ(Value::Int(0).Hash(), Value::Double(-0.0).Hash());
  // Sanity: a non-integral double equals no int, so no constraint applies —
  // but it must still hash like itself.
  EXPECT_EQ(Value::Double(2.5).Hash(), Value::Double(2.5).Hash());
}

// Beyond ±2^53 an int equals the double its image rounds to, and so may
// two different ints' images: every such pair must share a bucket.
TEST(ValueTest, IntsBeyondTwoToTheFiftyThreeHashLikeTheirDoubleImage) {
  const int64_t big = int64_t{1} << 53;
  for (const int64_t i : {big + 1, big + 2, -(big + 1), big * 3 + 1,
                          INT64_MAX, INT64_MIN}) {
    const Value as_int = Value::Int(i);
    const Value image = Value::Double(static_cast<double>(i));
    ASSERT_TRUE(as_int == image) << i;
    EXPECT_EQ(as_int.Hash(), image.Hash()) << i;
  }
  ASSERT_FALSE(Value::Int(big + 1) == Value::Int(big));
  ASSERT_TRUE(Value::Int(big + 1) == Value::Double(static_cast<double>(big)));
  EXPECT_EQ(Value::Int(big + 1).Hash(),
            Value::Double(static_cast<double>(big)).Hash());
}

// One Value of each kind, for the copy/move cases below. The two strings
// sit on either side of libstdc++'s 15-char small-string limit.
std::vector<Value> OneOfEachKind() {
  return {Value(),
          Value::Int(-7),
          Value::Double(2.5),
          Value::String("short"),
          Value::String("a string well past the small-string limit")};
}

TEST(ValueTest, CopyConstructAndCopyAssignKeepTheSource) {
  for (const Value& original : OneOfEachKind()) {
    const Value source = original;
    const Value copied(source);
    EXPECT_EQ(copied, original) << original.ToString();
    EXPECT_EQ(source, original) << original.ToString();
    Value assigned = Value::String("overwritten");
    assigned = source;
    EXPECT_EQ(assigned, original) << original.ToString();
    EXPECT_EQ(source, original) << original.ToString();
  }
}

TEST(ValueTest, MoveLeavesTheSourceNull) {
  for (const Value& original : OneOfEachKind()) {
    Value source = original;
    const Value moved(std::move(source));
    EXPECT_EQ(moved, original) << original.ToString();
    EXPECT_TRUE(source.is_null()) << original.ToString();

    Value assign_source = original;
    Value assigned = Value::String("overwritten");
    assigned = std::move(assign_source);
    EXPECT_EQ(assigned, original) << original.ToString();
    EXPECT_TRUE(assign_source.is_null()) << original.ToString();
  }
}

TEST(ValueTest, SelfAssignKeepsTheValue) {
  for (const Value& original : OneOfEachKind()) {
    Value v = original;
    const Value& alias = v;
    v = alias;
    EXPECT_EQ(v, original) << original.ToString();
    Value& same = v;
    v = std::move(same);
    EXPECT_EQ(v, original) << original.ToString();
  }
}

TEST(ValueTest, StringCopiesOutliveTheirSource) {
  for (const std::string text :
       {"", "abc", "fifteen chars!!", "sixteen chars!!!",
        "a string well past the small-string limit"}) {
    Value copy;
    Value assigned = Value::Int(1);
    {
      const Value source = Value::String(text);
      copy = Value(source);
      assigned = source;
    }
    ASSERT_TRUE(copy.is_string());
    EXPECT_EQ(copy.AsString(), text);
    EXPECT_EQ(assigned.AsString(), text);
    // Overwriting one copy leaves the other alone.
    copy = Value::Int(3);
    EXPECT_EQ(assigned.AsString(), text);
  }
}

TEST(ValueTest, CopiesInAVectorSurviveReallocation) {
  std::vector<Value> values;
  for (int i = 0; i < 100; ++i) {
    values.push_back(i % 2 == 0 ? Value::Int(i)
                                : Value::String(std::string(i, 'x')));
  }
  const std::vector<Value> copy = values;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(copy[i], values[i]) << i;
    if (i % 2 == 1) {
      EXPECT_EQ(copy[i].AsString().size(), size_t(i)) << i;
    }
  }
}

// Hash, == and Compare agree on every pair of kinds: equal values compare
// 0 and hash alike, unequal ones compare nonzero with opposite signs.
TEST(ValueTest, HashEqualityAndCompareAgreeAcrossKinds) {
  const std::vector<Value> values = {
      Value(),           Value::Int(0),          Value::Double(0.0),
      Value::Int(3),     Value::Double(3.0),     Value::Double(3.5),
      Value::String(""), Value::String("3"),
      Value::String("a string well past the small-string limit")};
  for (const Value& a : values) {
    for (const Value& b : values) {
      const Value b_copy = b;
      const bool equal = a == b;
      EXPECT_EQ(equal, a == b_copy) << a.ToString() << " " << b.ToString();
      EXPECT_EQ(equal, b == a) << a.ToString() << " " << b.ToString();
      EXPECT_EQ(equal, a.Compare(b) == 0)
          << a.ToString() << " " << b.ToString();
      EXPECT_EQ(a.Compare(b), -b.Compare(a))
          << a.ToString() << " " << b.ToString();
      if (equal) {
        EXPECT_EQ(a.Hash(), b.Hash()) << a.ToString() << " " << b.ToString();
      }
    }
  }
}

// Four threads copy and destroy copies of one shared string Value, and the
// original is dropped while they run, so whichever thread lets go last
// frees the payload. Its reference count is the only state they share: a
// data race on it fails this case under ThreadSanitizer, and a lost
// decrement leaks the payload under LeakSanitizer.
TEST(ValueTest, ConcurrentCopiesOfOneStringShareItsPayloadSafely) {
  const std::string text = "a string well past the small-string limit";
  Value original = Value::String(text);
  std::vector<size_t> matches(4, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&matches, &text, t, own = original] {
      for (int i = 0; i < 10000; ++i) {
        std::vector<Value> copies(3, own);
        const Value moved = std::move(copies[1]);
        if (moved.AsString() == text && copies[2] == own) ++matches[t];
      }
    });
  }
  original = Value();
  for (std::thread& thread : threads) thread.join();
  for (const size_t count : matches) EXPECT_EQ(count, 10000u);
}

TEST(TypeTest, Names) {
  EXPECT_STREQ(TypeName(Type::kInt64), "INT");
  EXPECT_STREQ(TypeName(Type::kDouble), "DOUBLE");
  EXPECT_STREQ(TypeName(Type::kString), "STRING");
}

TEST(TypeTest, ParseAliases) {
  EXPECT_EQ(ParseType("INT").value(), Type::kInt64);
  EXPECT_EQ(ParseType("integer").value(), Type::kInt64);
  EXPECT_EQ(ParseType("int64").value(), Type::kInt64);
  EXPECT_EQ(ParseType("Double").value(), Type::kDouble);
  EXPECT_EQ(ParseType("REAL").value(), Type::kDouble);
  EXPECT_EQ(ParseType("string").value(), Type::kString);
  EXPECT_EQ(ParseType("varchar").value(), Type::kString);
  EXPECT_FALSE(ParseType("blob").ok());
}

}  // namespace
}  // namespace dbrepair
