// Strict numeric parsing (util/parse.hpp): the one rule set behind every
// numeric flag and environment override.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace dimmer::util
