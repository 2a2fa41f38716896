// iosim: minimal JSON reader — the inverse of JsonWriter.
//
// Exists so the harness can read back its own artifacts (run-journal JSONL
// records, BENCH files in tests). It parses exactly the JSON subset
// JsonWriter emits — objects, arrays, strings with the writer's escapes,
// numbers, booleans, null — into an ordered DOM. Two properties matter for
// resume byte-identity:
//
//  * object keys keep file order (metrics re-aggregate in emission order);
//  * every number keeps its raw token next to its double value, so 64-bit
//    seeds (which do not fit a double) round-trip losslessly and doubles
//    re-parse to the exact bits format_double printed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace iosim::exp {

struct JsonValue {
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  /// kString: the decoded string. kNumber: the raw token (e.g.
  /// "18446744073709551615"), for lossless u64 re-parsing.
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;  // insertion order

  /// First value under `key`, or null when absent (objects only).
  const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  /// Number token re-parsed as u64; nullopt when not an unsigned integer
  /// token (sign, fraction, exponent, overflow).
  std::optional<std::uint64_t> as_u64() const;
};

/// Parse one complete JSON document. Trailing garbage after the document is
/// an error. nullopt + one-line diagnostic (byte offset) on malformed input.
std::optional<JsonValue> json_parse(std::string_view text, std::string* error = nullptr);

}  // namespace iosim::exp
