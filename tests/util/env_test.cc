#include "src/util/env.h"

#include <cstdint>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

namespace dibs {
namespace {

// RAII env variable for the duration of one test.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, /*overwrite=*/1);
    }
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

constexpr char kKnob[] = "DIBS_ENV_TEST_KNOB";

TEST(EnvTest, UnsetAndEmptyYieldFallback) {
  ScopedEnv unset(kKnob, nullptr);
  EXPECT_FALSE(env::IsSet(kKnob));
  EXPECT_EQ(env::Raw(kKnob), nullptr);
  EXPECT_EQ(env::Int(kKnob, 7, 0, 100), 7);
  EXPECT_EQ(env::Double(kKnob, 0.5, 0, 1), 0.5);
  EXPECT_TRUE(env::Flag(kKnob, true));
  EXPECT_EQ(env::OneOf(kKnob, "thread", {"thread", "process"}), "thread");

  ScopedEnv empty(kKnob, "");
  EXPECT_FALSE(env::IsSet(kKnob));
  EXPECT_EQ(env::Int(kKnob, 7, 0, 100), 7);
}

TEST(EnvTest, IntParsesSignedDecimal) {
  ScopedEnv e(kKnob, "42");
  EXPECT_EQ(env::Int(kKnob, 0, 0, 100), 42);
  ScopedEnv neg(kKnob, "-3");
  EXPECT_EQ(env::Int(kKnob, 0, -10, 10), -3);
  ScopedEnv plus(kKnob, "+9");
  EXPECT_EQ(env::Int(kKnob, 0, 0, 10), 9);
}

TEST(EnvTest, IntRejectsGarbage) {
  for (const char* bad : {"fuor", "12x", "1.5", "0x10", " 3", "3 ", "-", "+",
                          "1e3", "99999999999999999999999999"}) {
    ScopedEnv e(kKnob, bad);
    EXPECT_THROW(env::Int(kKnob, 0, 0, 100), EnvError) << "value: " << bad;
  }
}

TEST(EnvTest, IntEnforcesRange) {
  ScopedEnv lo(kKnob, "-1");
  EXPECT_THROW(env::Int(kKnob, 0, 0, 100), EnvError);
  ScopedEnv hi(kKnob, "101");
  EXPECT_THROW(env::Int(kKnob, 0, 0, 100), EnvError);
  ScopedEnv edge(kKnob, "100");
  EXPECT_EQ(env::Int(kKnob, 0, 0, 100), 100);
}

TEST(EnvTest, ParseIntAppliesIntsRuleToAnyText) {
  int64_t out = -7;
  std::string reason;
  EXPECT_TRUE(env::ParseInt("100", 1, 100, &out, &reason));
  EXPECT_EQ(out, 100);
  for (const char* bad : {"1O0", "abc", "12x", " 3", "", "-", "1e3"}) {
    out = -7;
    EXPECT_FALSE(env::ParseInt(bad, 1, 100, &out, &reason)) << "value: " << bad;
    EXPECT_EQ(reason, "expected an integer") << "value: " << bad;
    EXPECT_EQ(out, -7) << "a rejected value must leave the output alone";
  }
  EXPECT_FALSE(env::ParseInt("-1", 0, 100, &out, &reason));
  EXPECT_EQ(reason, "out of range [0, 100]");
  EXPECT_FALSE(env::ParseInt("99999999999999999999", 0, INT64_MAX, &out, &reason));
  EXPECT_EQ(reason, "integer out of representable range");
}

TEST(EnvTest, ErrorCarriesNameAndValue) {
  ScopedEnv e(kKnob, "fuor");
  try {
    env::Int(kKnob, 0, 0, 100);
    FAIL() << "expected EnvError";
  } catch (const EnvError& err) {
    EXPECT_EQ(err.name(), kKnob);
    EXPECT_EQ(err.value(), "fuor");
    EXPECT_NE(std::string(err.what()).find(kKnob), std::string::npos);
  }
}

TEST(EnvTest, DoubleParsesAndBounds) {
  ScopedEnv e(kKnob, "0.25");
  EXPECT_DOUBLE_EQ(env::Double(kKnob, 0, 0, 1), 0.25);
  ScopedEnv sci(kKnob, "2.5e-1");
  EXPECT_DOUBLE_EQ(env::Double(kKnob, 0, 0, 1), 0.25);
  ScopedEnv hi(kKnob, "1.5");
  EXPECT_THROW(env::Double(kKnob, 0, 0, 1), EnvError);
}

TEST(EnvTest, DoubleRejectsNonFiniteAndGarbage) {
  for (const char* bad : {"nan", "inf", "-inf", "abc", "1.0x", ""}) {
    ScopedEnv e(kKnob, bad);
    if (bad[0] == '\0') {
      EXPECT_DOUBLE_EQ(env::Double(kKnob, 0.5, 0, 1), 0.5);  // empty = unset
    } else {
      EXPECT_THROW(env::Double(kKnob, 0, 0, 1), EnvError) << "value: " << bad;
    }
  }
}

TEST(EnvTest, FlagAcceptsCanonicalSpellings) {
  for (const char* yes : {"1", "true", "TRUE", "on", "yes"}) {
    ScopedEnv e(kKnob, yes);
    EXPECT_TRUE(env::Flag(kKnob, false)) << "value: " << yes;
  }
  for (const char* no : {"0", "false", "off", "NO"}) {
    ScopedEnv e(kKnob, no);
    EXPECT_FALSE(env::Flag(kKnob, true)) << "value: " << no;
  }
}

TEST(EnvTest, FlagRejectsTypos) {
  for (const char* bad : {"treu", "2", "y", "enable"}) {
    ScopedEnv e(kKnob, bad);
    EXPECT_THROW(env::Flag(kKnob, false), EnvError) << "value: " << bad;
  }
}

TEST(EnvTest, OneOfMatchesExactlyOrThrows) {
  ScopedEnv e(kKnob, "process");
  EXPECT_EQ(env::OneOf(kKnob, "thread", {"thread", "process"}), "process");
  ScopedEnv bad(kKnob, "Process");
  EXPECT_THROW(env::OneOf(kKnob, "thread", {"thread", "process"}), EnvError);
}

}  // namespace
}  // namespace dibs
