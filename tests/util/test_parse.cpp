// Strict numeric parsing (util/parse.hpp): the one rule set behind every
// numeric flag and environment override, and the env readers built on it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "util/check.hpp"
#include "util/parse.hpp"

namespace dimmer::util {
namespace {

TEST(Parse, IntAcceptsCanonicalDecimals) {
  EXPECT_EQ(parse_int("0"), 0);
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_EQ(parse_int("007"), 7);
  EXPECT_EQ(parse_int("9223372036854775807"), 9223372036854775807L);
}

TEST(Parse, IntRejectsMalformedAndOverflow) {
  for (const char* bad : {"", "-", "+3", " 8", "8 ", "4x", "0x10", "3.5",
                          "1e2", "--1", "9223372036854775808",
                          "-99999999999999999999"}) {
    EXPECT_FALSE(parse_int(bad).has_value()) << '"' << bad << '"';
  }
}

TEST(Parse, PositiveIntRejectsEverythingButOneToIntMax) {
  EXPECT_EQ(parse_positive_int("1"), 1);
  EXPECT_EQ(parse_positive_int("64"), 64);
  EXPECT_EQ(parse_positive_int("2147483647"), 2147483647);
  for (const char* bad : {"0.25x", "", " 8", "-1", "+3", "0", "8x", "0x10",
                          "2147483648", "99999999999999999999"}) {
    EXPECT_FALSE(parse_positive_int(bad).has_value()) << '"' << bad << '"';
  }
}

TEST(Parse, DoubleAcceptsDecimalNumbers) {
  EXPECT_EQ(parse_double("0.25"), 0.25);
  EXPECT_EQ(parse_double("-1.5"), -1.5);
  EXPECT_EQ(parse_double(".5"), 0.5);
  EXPECT_EQ(parse_double("1e2"), 100.0);
  EXPECT_EQ(parse_double("3"), 3.0);
}

TEST(Parse, DoubleRejectsMalformedNonFiniteAndOutOfRange) {
  for (const char* bad : {"0.25x", "", " 0.5", "0.5 ", "+3", "-", ".", "1e",
                          "inf", "-inf", "nan", "0x1p3", "1e999", "-1e999",
                          "1e-400", "1.2.3"}) {
    EXPECT_FALSE(parse_double(bad).has_value()) << '"' << bad << '"';
  }
}

// The env readers: unset is "no override", a valid value parses, and a set
// but malformed value (trailing junk, or set to empty) throws naming the
// variable.
TEST(Parse, EnvPositiveIntReadsUnsetValidAndRejectsMalformed) {
  const char* name = "DIMMER_TEST_ENV_INT";
  ASSERT_EQ(unsetenv(name), 0);
  EXPECT_FALSE(env_positive_int(name).has_value());
  ASSERT_EQ(setenv(name, "4", 1), 0);
  EXPECT_EQ(env_positive_int(name), 4);
  for (const char* bad : {"4x", ""}) {
    ASSERT_EQ(setenv(name, bad, 1), 0);
    try {
      (void)env_positive_int(name);
      ADD_FAILURE() << '"' << bad << "\" accepted";
    } catch (const RequireError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "DIMMER_TEST_ENV_INT must be an integer in [1, INT_MAX]"),
                std::string::npos)
          << e.what();
    }
  }
  ASSERT_EQ(unsetenv(name), 0);
}

TEST(Parse, EnvPositiveDoubleReadsUnsetValidAndRejectsMalformed) {
  const char* name = "DIMMER_TEST_ENV_DOUBLE";
  ASSERT_EQ(unsetenv(name), 0);
  EXPECT_FALSE(env_positive_double(name).has_value());
  ASSERT_EQ(setenv(name, "0.25", 1), 0);
  EXPECT_EQ(env_positive_double(name), 0.25);
  for (const char* bad : {"4x", "", "0", "-1"}) {
    ASSERT_EQ(setenv(name, bad, 1), 0);
    try {
      (void)env_positive_double(name);
      ADD_FAILURE() << '"' << bad << "\" accepted";
    } catch (const RequireError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "DIMMER_TEST_ENV_DOUBLE must be a positive finite number"),
                std::string::npos)
          << e.what();
    }
  }
  ASSERT_EQ(unsetenv(name), 0);
}

}  // namespace
}  // namespace dimmer::util
