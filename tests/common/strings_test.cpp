#include "common/strings.hpp"

#include <gtest/gtest.h>

namespace dart {
namespace {

TEST(FormatDouble, FixedPrecision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(3.0, 0), "3");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

TEST(FormatPercent, MultipliesByHundred) {
  EXPECT_EQ(format_percent(0.123, 1), "12.3%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
}

TEST(FormatCount, GroupsThousands) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(1234567), "1,234,567");
  EXPECT_EQ(format_count(135780000), "135,780,000");
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "23456"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 23456 |"), std::string::npos);
}

TEST(TextTable, PadsShortRows) {
  TextTable table({"a", "b", "c"});
  table.add_row({"only"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| only |"), std::string::npos);
}

TEST(ParseFlag, IntegerTakesTheWholeTokenInRange) {
  std::uint64_t value = 7;
  EXPECT_TRUE(parse_integer("0", &value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(parse_integer("18446744073709551615", &value));
  EXPECT_EQ(value, ~std::uint64_t{0});
  EXPECT_TRUE(parse_integer("1024", &value, 1, 1024));
  EXPECT_EQ(value, 1024u);
  value = 7;
  for (const char* bad : {"", "abc", "12x", "1e3", "-1", "+1", " 1", "1 ",
                          "0x10", "18446744073709551616"}) {
    EXPECT_FALSE(parse_integer(bad, &value)) << "'" << bad << "'";
  }
  EXPECT_FALSE(parse_integer("0", &value, 1, 1024));
  EXPECT_FALSE(parse_integer("1025", &value, 1, 1024));
  EXPECT_EQ(value, 7u);  // a refused token leaves the value alone
}

TEST(ParseFlag, NarrowFieldsRefuseInsteadOfWrapping) {
  std::uint16_t port = 1;
  EXPECT_TRUE(parse_integer("65535", &port));
  EXPECT_EQ(port, 65535u);
  EXPECT_FALSE(parse_integer("70000", &port));
  EXPECT_EQ(port, 65535u);
  std::uint32_t stages = 0;
  EXPECT_FALSE(parse_integer("4294967296", &stages));

  std::int64_t offset = 0;
  EXPECT_TRUE(parse_integer("-3", &offset));
  EXPECT_EQ(offset, -3);
  EXPECT_FALSE(parse_integer("3x", &offset));
  EXPECT_FALSE(parse_integer("9223372036854775808", &offset));
}

TEST(ParseFlag, NonnegativeIsAFiniteNumberAtLeastZero) {
  double rate = -1.0;
  EXPECT_TRUE(parse_nonnegative("1.5", &rate));
  EXPECT_EQ(rate, 1.5);
  EXPECT_TRUE(parse_nonnegative("2e-1", &rate));
  EXPECT_EQ(rate, 0.2);
  EXPECT_TRUE(parse_nonnegative("0", &rate));
  EXPECT_EQ(rate, 0.0);
  for (const char* bad : {"", "-1", "inf", "nan", "1.5x", "1e400"}) {
    EXPECT_FALSE(parse_nonnegative(bad, &rate)) << "'" << bad << "'";
  }
  EXPECT_EQ(rate, 0.0);
}

}  // namespace
}  // namespace dart
