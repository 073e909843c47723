#include "util/strings.h"

#include <gtest/gtest.h>

namespace tsufail {
namespace {

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\r\nx\n"), "x");
  EXPECT_EQ(trim("nochange"), "nochange");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Split, KeepsEmptyFields) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string_view>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string_view>{"a", "", "c"}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string_view>{"", ""}));
  EXPECT_EQ(split("", ','), (std::vector<std::string_view>{""}));
  EXPECT_EQ(split("0|2", '|'), (std::vector<std::string_view>{"0", "2"}));
}

TEST(Join, WithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({"solo"}, ","), "solo");
  EXPECT_EQ(join({}, ","), "");
}

TEST(ToLower, AsciiOnly) {
  EXPECT_EQ(to_lower("GPU Driver"), "gpu driver");
  EXPECT_EQ(to_lower("already"), "already");
  EXPECT_EQ(to_lower("MiXeD123"), "mixed123");
}

TEST(IEquals, CaseInsensitive) {
  EXPECT_TRUE(iequals("GPU", "gpu"));
  EXPECT_TRUE(iequals("Tsubame-3", "TSUBAME-3"));
  EXPECT_FALSE(iequals("GPU", "GPU "));
  EXPECT_FALSE(iequals("GPU", "CPU"));
  EXPECT_TRUE(iequals("", ""));
}

TEST(ParseInt, StrictFullString) {
  EXPECT_EQ(parse_int("42").value(), 42);
  EXPECT_EQ(parse_int("-7").value(), -7);
  EXPECT_EQ(parse_int("0").value(), 0);
  EXPECT_FALSE(parse_int("").ok());
  EXPECT_FALSE(parse_int("42x").ok());
  EXPECT_FALSE(parse_int(" 42").ok());
  EXPECT_FALSE(parse_int("4.2").ok());

  EXPECT_EQ(parse_int32("2147483647").value(), 2147483647);
  EXPECT_EQ(parse_int32("-2147483648").value(), -2147483647 - 1);
  EXPECT_EQ(parse_int32("2147483648").error().message(), "integer out of range: '2147483648'");
  EXPECT_FALSE(parse_int32("-2147483649").ok());
  EXPECT_FALSE(parse_int32("4294967297").ok());  // would wrap to 1
  EXPECT_FALSE(parse_int32("x").ok());
}

TEST(ParseDouble, StrictFullString) {
  EXPECT_DOUBLE_EQ(parse_double("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(parse_double("-0.25").value(), -0.25);
  EXPECT_DOUBLE_EQ(parse_double("1e3").value(), 1000.0);
  EXPECT_FALSE(parse_double("").ok());
  EXPECT_FALSE(parse_double("3.5h").ok());
  EXPECT_FALSE(parse_double("nanbut").ok());
}

TEST(ParseErrors, CarryParseKind) {
  EXPECT_EQ(parse_int("x").error().kind(), ErrorKind::kParse);
  EXPECT_EQ(parse_double("y").error().kind(), ErrorKind::kParse);
}

}  // namespace
}  // namespace tsufail
