// iosim: the one lexer for every text input.
//
// The scenario, stream and fault grammars and every command-line tool decide
// here what a token, a list and a number are, so the same text means the
// same value wherever it is typed. It lives in src/sim because iosim_sim is
// linked by every grammar and every tool; it is header-only.
//
// Numbers are strict. The whole token must be the number: no surrounding
// whitespace (the grammars trim where their syntax allows it), no '+', no
// hex. Integers are decimal and must fit the target type; unsigned targets
// take no sign at all, so "-1" is never read as 2^64 - 1. Doubles must be
// finite: "nan", "inf" and decimals outside double's range are rejected,
// because NaN slips through every range check and a non-finite value would
// reach float-to-integer conversions downstream.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace iosim::lex {

/// Strip spaces, tabs and carriage returns from both ends.
inline std::string_view trim(std::string_view s) {
  const auto blank = [](char c) { return c == ' ' || c == '\t' || c == '\r'; };
  while (!s.empty() && blank(s.front())) s.remove_prefix(1);
  while (!s.empty() && blank(s.back())) s.remove_suffix(1);
  return s;
}

/// The `sep`-separated pieces of `s` in order, untrimmed. Empty pieces are
/// kept: "a,,b" has three pieces and "" has one.
inline std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  while (true) {
    const auto pos = s.find(sep);
    out.push_back(s.substr(0, pos));
    if (pos == std::string_view::npos) return out;
    s.remove_prefix(pos + 1);
  }
}

/// A list value: `sep`-separated elements, each trimmed. nullopt when any
/// element is empty — a stray separator silently shrinking a list would
/// change the experiment it describes.
inline std::optional<std::vector<std::string_view>> list(std::string_view s,
                                                         char sep) {
  auto items = split(s, sep);
  for (auto& it : items) {
    it = trim(it);
    if (it.empty()) return std::nullopt;
  }
  return items;
}

/// Strict decimal integer that fits `Int`; signed targets take an optional
/// leading '-', unsigned targets no sign.
template <class Int>
bool parse_int(std::string_view s, Int* out) {
  static_assert(std::is_integral_v<Int> && !std::is_same_v<Int, bool>);
  Int v{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size()) return false;
  *out = v;
  return true;
}

/// Strict finite decimal double (fixed or exponent notation).
inline bool parse_double(std::string_view s, double* out) {
  double v = 0.0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size() || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

/// The shortest of %.15g, %.16g and %.17g that reads back as exactly `v`,
/// so canonical text re-parses to the value it was rendered from.
inline std::string format_double(double v) {
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    const int n = std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    double back = 0.0;
    std::from_chars(buf, buf + n, back);
    if (back == v) break;
  }
  return buf;
}

}  // namespace iosim::lex
