// src/util/json contract: Parse keeps object members in document order and
// refuses a repeated key; ReadInt<T> takes exactly the integer tokens T can
// hold and throws on everything else, leaving the field untouched.

#include "src/util/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace dibs::json {
namespace {

Value ParseOrFail(const std::string& text) {
  Value v;
  std::string error;
  EXPECT_TRUE(Parse(text, &v, &error)) << text << ": " << error;
  return v;
}

// Reads `token` through ReadInt<T>; false when ReadInt throws.
template <typename T>
bool ReadsAs(const std::string& token, T* out) {
  const Value v = ParseOrFail("{\"k\":" + token + "}");
  try {
    ReadInt(v, "k", out);
  } catch (const CodecError& e) {
    EXPECT_EQ(e.field(), "k");
    return false;
  }
  return true;
}

TEST(JsonTest, ParseKeepsKeyOrder) {
  const Value v = ParseOrFail(R"({"b":1,"a":"x","c":{"z":0,"y":1}})");
  ASSERT_EQ(v.fields.size(), 3u);
  EXPECT_EQ(v.fields[0].first, "b");
  EXPECT_EQ(v.fields[1].first, "a");
  EXPECT_EQ(v.fields[2].first, "c");
  const Value& inner = v.fields[2].second;
  ASSERT_EQ(inner.fields.size(), 2u);
  EXPECT_EQ(inner.fields[0].first, "z");
  EXPECT_EQ(inner.fields[1].first, "y");
  ASSERT_NE(Find(v, "a"), nullptr);
  EXPECT_EQ(Find(v, "a")->text, "x");
  EXPECT_EQ(Find(v, "missing"), nullptr);
}

TEST(JsonTest, ParseRejectsRepeatedKeyNamingIt) {
  Value v;
  std::string error;
  EXPECT_FALSE(Parse(R"({"seed":1,"run":2,"seed":3})", &v, &error));
  EXPECT_NE(error.find("repeated key 'seed'"), std::string::npos) << error;
  EXPECT_FALSE(Parse(R"({"a":{"x":1,"x":1}})", &v, &error));
  EXPECT_NE(error.find("repeated key 'x'"), std::string::npos) << error;
  // One key in two sibling objects is not a repeat.
  EXPECT_TRUE(Parse(R"({"a":{"x":1},"b":{"x":1}})", &v, &error)) << error;
}

TEST(JsonTest, ReadIntRejectsValuesOutsideTheType) {
  uint8_t u8 = 7;
  EXPECT_FALSE(ReadsAs("300", &u8));
  EXPECT_EQ(u8, 7);
  int32_t i32 = 7;
  EXPECT_FALSE(ReadsAs("2147483648", &i32));
  EXPECT_EQ(i32, 7);
  uint64_t u64 = 7;
  EXPECT_FALSE(ReadsAs("-1", &u64));
  EXPECT_FALSE(ReadsAs("18446744073709551616", &u64));
  EXPECT_EQ(u64, 7u);
  bool flag = true;
  EXPECT_FALSE(ReadsAs("2", &flag));
  EXPECT_FALSE(ReadsAs("-1", &flag));
  EXPECT_TRUE(flag);
  EXPECT_FALSE(ReadsAs("\"5\"", &i32));  // a string is not a number
}

TEST(JsonTest, ReadIntLeavesAbsentKeyAlone) {
  int64_t v = -3;
  ReadInt(ParseOrFail(R"({"other":1})"), "k", &v);
  EXPECT_EQ(v, -3);
}

template <typename T>
class JsonReadIntTest : public ::testing::Test {};
using IntegerTypes = ::testing::Types<bool, int8_t, uint8_t, int16_t, uint16_t,
                                      int32_t, uint32_t, int64_t, uint64_t>;
TYPED_TEST_SUITE(JsonReadIntTest, IntegerTypes);

TYPED_TEST(JsonReadIntTest, RejectsFractionsAndExponents) {
  for (const char* token : {"1.5", "1e3", "1.0", "0E0"}) {
    TypeParam out{};
    EXPECT_FALSE(ReadsAs(token, &out)) << token;
  }
}

// Covers INT64_MIN into int64_t and UINT64_MAX into uint64_t, which a
// double-based reader cannot hold exactly.
TYPED_TEST(JsonReadIntTest, AcceptsBothLimits) {
  using Limits = std::numeric_limits<TypeParam>;
  for (const TypeParam limit : {Limits::min(), Limits::max()}) {
    TypeParam out = limit == Limits::min() ? Limits::max() : Limits::min();
    ASSERT_TRUE(ReadsAs(std::to_string(limit), &out)) << std::to_string(limit);
    EXPECT_EQ(out, limit);
  }
}

}  // namespace
}  // namespace dibs::json
