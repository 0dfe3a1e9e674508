#include "util/strings.h"

#include <gtest/gtest.h>

namespace raidrel::util {
namespace {

TEST(FormatFixed, RoundsAtRequestedDigits) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(3.145, 2), "3.15");  // round-half-away on glibc
  EXPECT_EQ(format_fixed(-1.0, 0), "-1");
}

TEST(FormatSci, ProducesScientific) {
  EXPECT_EQ(format_sci(1.08e-4, 2), "1.08e-04");
  EXPECT_EQ(format_sci(461386.0, 3), "4.614e+05");
}

TEST(FormatGeneral, SwitchesNotation) {
  EXPECT_EQ(format_general(0.0), "0");
  EXPECT_EQ(format_general(12.5, 4), "12.5");
  EXPECT_EQ(format_general(1.08e-9, 3), "1.08e-09");
  EXPECT_EQ(format_general(4.5e8, 3), "4.50e+08");
}

TEST(FormatGrouped, InsertsThousandsSeparators) {
  EXPECT_EQ(format_grouped(0), "0");
  EXPECT_EQ(format_grouped(999), "999");
  EXPECT_EQ(format_grouped(461386), "461,386");
  EXPECT_EQ(format_grouped(-1234567), "-1,234,567");
}

TEST(Padding, LeftAndRight) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcdef", 4), "abcdef");  // never truncates
}

}  // namespace
}  // namespace raidrel::util
