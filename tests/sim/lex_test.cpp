// Tests of the shared lexer: what a token, a list and a number are in every
// iosim text input (the scenario, stream and fault grammars and the CLIs).
#include "sim/lex.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace iosim::lex {
namespace {

TEST(Lex, TrimStripsBlanksAtBothEnds) {
  EXPECT_EQ(trim(" \t\rab c\r\t "), "ab c");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
}

TEST(Lex, SplitKeepsEmptyPieces) {
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string_view>{"a", "", "b"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string_view>{""}));
  EXPECT_EQ(split("a,", ','), (std::vector<std::string_view>{"a", ""}));
  EXPECT_EQ(split(" a ;b", ';'), (std::vector<std::string_view>{" a ", "b"}));
}

TEST(Lex, ListTrimsElementsAndRejectsEmptyOnes) {
  const auto l = list(" a , b|c ", ',');
  ASSERT_TRUE(l.has_value());
  EXPECT_EQ(*l, (std::vector<std::string_view>{"a", "b|c"}));
  EXPECT_FALSE(list("a,,b", ',').has_value());
  EXPECT_FALSE(list("a, ", ',').has_value());
  EXPECT_FALSE(list("", ',').has_value());
}

TEST(Lex, IntegersAreWholeDecimalTokensThatFit) {
  int i = 0;
  EXPECT_TRUE(parse_int("42", &i));
  EXPECT_EQ(i, 42);
  EXPECT_TRUE(parse_int("-3", &i));
  EXPECT_EQ(i, -3);
  EXPECT_TRUE(parse_int("007", &i));
  EXPECT_EQ(i, 7);
  for (const char* bad : {"", "+1", " 1", "1 ", "1x", "0x10", "1e3", "1.0", "-",
                          "2147483648", "-2147483649"}) {
    i = 99;
    EXPECT_FALSE(parse_int(bad, &i)) << bad;
    EXPECT_EQ(i, 99) << "a rejected token must leave the target alone: " << bad;
  }
  std::uint64_t u = 0;
  EXPECT_TRUE(parse_int("18446744073709551615", &u));
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(parse_int("18446744073709551616", &u));
  EXPECT_FALSE(parse_int("-1", &u));  // never wraps to 2^64 - 1
  EXPECT_FALSE(parse_int("-0", &u));
}

TEST(Lex, DoublesAreFiniteDecimals) {
  double d = 0.0;
  EXPECT_TRUE(parse_double("0.5", &d));
  EXPECT_EQ(d, 0.5);
  EXPECT_TRUE(parse_double("-2", &d));
  EXPECT_EQ(d, -2.0);
  EXPECT_TRUE(parse_double("1e3", &d));
  EXPECT_EQ(d, 1000.0);
  EXPECT_TRUE(parse_double(".5", &d));
  EXPECT_EQ(d, 0.5);
  for (const char* bad : {"", "nan", "inf", "-inf", "infinity", "1e999", "1e-400",
                          "0x1p3", "+1", " 1", "1 ", "1,5", "1.5x", "."}) {
    d = 7.0;
    EXPECT_FALSE(parse_double(bad, &d)) << bad;
    EXPECT_EQ(d, 7.0) << bad;
  }
}

TEST(Lex, FormatDoubleIsShortestRoundTrip) {
  EXPECT_EQ(format_double(0.1), "0.1");
  EXPECT_EQ(format_double(0.0123456789), "0.0123456789");
  EXPECT_EQ(format_double(1e6), "1000000");
  EXPECT_EQ(format_double(2.5), "2.5");
  for (const double v : {1.0 / 3.0, 2.0 / 3.0, 1e-300, 123456.789e10,
                         std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::denorm_min()}) {
    double back = 0.0;
    ASSERT_TRUE(parse_double(format_double(v), &back)) << format_double(v);
    EXPECT_EQ(back, v) << format_double(v);
  }
}

}  // namespace
}  // namespace iosim::lex
