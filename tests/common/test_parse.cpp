#include "grist/common/parse.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>

namespace grist {
namespace {

TEST(ParseNumber, AcceptsAWholeTokenInRange) {
  EXPECT_EQ(parseNumber<int>("12", 0, INT_MAX), 12);
  EXPECT_EQ(parseNumber<int>("0", 0, INT_MAX), 0);
  EXPECT_EQ(parseNumber<std::uint64_t>("18446744073709551615", 0, UINT64_MAX),
            UINT64_MAX);
  EXPECT_EQ(parseNumber<double>("0.25", 0.0, 1.0), 0.25);
}

TEST(ParseNumber, RejectsTrailingCharacters) {
  EXPECT_FALSE(parseNumber<int>("12x", 0, INT_MAX));
  EXPECT_FALSE(parseNumber<int>("12 ", 0, INT_MAX));
  EXPECT_FALSE(parseNumber<double>("1e-3s", 0.0, 1.0));
}

TEST(ParseNumber, RejectsEmptyAndNonNumericTokens) {
  EXPECT_FALSE(parseNumber<int>("", 0, INT_MAX));
  EXPECT_FALSE(parseNumber<int>("abc", 0, INT_MAX));
  EXPECT_FALSE(parseNumber<int>(" 12", 0, INT_MAX));
  EXPECT_FALSE(parseNumber<double>("nan", 0.0, 1.0));
}

TEST(ParseNumber, RejectsValuesOutsideTheRange) {
  EXPECT_FALSE(parseNumber<int>("-3", 0, INT_MAX));
  EXPECT_FALSE(parseNumber<int>("-3", 1, 8));
  EXPECT_FALSE(parseNumber<int>("9", 1, 8));
  EXPECT_FALSE(parseNumber<std::uint64_t>("-3", 0, UINT64_MAX));
  EXPECT_FALSE(parseNumber<double>("-0.5", 0.0, 1.0));
}

TEST(ParseNumber, RejectsOverflow) {
  EXPECT_FALSE(parseNumber<int>("99999999999999999999", 0, INT_MAX));
  EXPECT_FALSE(parseNumber<std::uint64_t>("18446744073709551616", 0, UINT64_MAX));
}

} // namespace
} // namespace grist
