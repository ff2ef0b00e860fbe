#include "util/string_util.h"

#include <cmath>
#include <optional>

#include <gtest/gtest.h>

namespace rdfrel {
namespace {

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = SplitString("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitNoSeparator) {
  auto parts = SplitString("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(TrimWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace("   "), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("SELECT *", "SELECT"));
  EXPECT_FALSE(StartsWith("SEL", "SELECT"));
  EXPECT_TRUE(EndsWith("file.nt", ".nt"));
  EXPECT_FALSE(EndsWith("nt", ".nt"));
}

TEST(StringUtilTest, CaseFolding) {
  EXPECT_EQ(ToLowerAscii("SeLeCt"), "select");
  EXPECT_EQ(ToUpperAscii("SeLeCt"), "SELECT");
  EXPECT_TRUE(EqualsIgnoreCaseAscii("union", "UNION"));
  EXPECT_FALSE(EqualsIgnoreCaseAscii("union", "unions"));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
  EXPECT_EQ(JoinStrings({"x"}, ","), "x");
}

TEST(StringUtilTest, NtEscape) {
  EXPECT_EQ(NtEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(NtEscape("plain"), "plain");
}

TEST(StringUtilTest, ParseDoubleAcceptsWhatTheReferenceCallsNumeric) {
  // The answers the SPARQL reference evaluator's Numeric() (strtod over
  // the whole lexical form, ERANGE rejected) gives for the same strings.
  const std::pair<const char*, std::optional<double>> cases[] = {
      {"", std::nullopt},
      {" 5", 5.0},
      {"5 ", std::nullopt},
      {"0x10", 16.0},
      {"inf", INFINITY},
      {"1e999", std::nullopt},
      {"6.0", 6.0},
      {"-2.5e3", -2500.0},
      {"abc", std::nullopt},
      {" ", std::nullopt},
  };
  for (const auto& [text, want] : cases) {
    double got = -1;
    const bool ok = ParseDouble(text, &got);
    EXPECT_EQ(ok, want.has_value()) << '"' << text << '"';
    if (ok && want.has_value()) {
      EXPECT_EQ(got, *want) << '"' << text << '"';
    }
  }
  double nan = 0;
  EXPECT_TRUE(ParseDouble("nan", &nan));
  EXPECT_TRUE(std::isnan(nan));
  EXPECT_FALSE(ParseDouble(std::string("5\0", 2), &nan));  // embedded NUL
}

}  // namespace
}  // namespace rdfrel
