// The one JSON module: string escaping, number writing, parsing and
// validation for every document this repository emits or reads (run
// reports, metrics snapshots, Chrome traces, the run ledger, serve
// requests and replies, lint findings). No external JSON library.
//
// The parser reads one RFC 8259 document into a small value tree.
// Object key order is preserved (reports are written with deliberate
// ordering); duplicate keys keep the last occurrence on lookup,
// mirroring common JSON library behaviour.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tagnn::obs {

/// Escapes `s` for use between JSON double quotes: `"` and `\` are
/// backslash-escaped, newline/tab/CR become \n \t \r, other bytes below
/// 0x20 become \u00xx (lowercase hex), and bytes >= 0x80 pass through.
std::string json_escape(std::string_view s);

class JsonValue;

using JsonArray = std::vector<JsonValue>;
using JsonMember = std::pair<std::string, JsonValue>;
using JsonObject = std::vector<JsonMember>;

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  double as_number(double fallback = 0.0) const {
    return is_number() ? number_ : fallback;
  }
  const std::string& as_string() const { return string_; }
  const JsonArray& as_array() const { return array_; }
  const JsonObject& as_object() const { return object_; }

  /// Object member lookup (last occurrence wins); null when this is not
  /// an object or the key is absent.
  const JsonValue* find(std::string_view key) const;
  /// Number at `key`, or fallback when absent / not a number.
  double number_at(std::string_view key, double fallback = 0.0) const;
  /// String at `key`, or fallback when absent / not a string.
  std::string string_at(std::string_view key,
                        std::string_view fallback = "") const;

  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double d);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(JsonArray a);
  static JsonValue make_object(JsonObject o);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  JsonArray array_;
  JsonObject object_;
};

/// Parses exactly one JSON document (surrounding whitespace allowed).
/// Returns false and fills `error` (if non-null) with a message naming
/// the byte offset of the first problem; `out` is left
/// default-constructed in that case. Bare NaN / Infinity / -Infinity
/// tokens are rejected explicitly (RFC 8259 has no such literals;
/// emitters here serialise them as null).
bool json_parse(std::string_view text, JsonValue* out,
                std::string* error = nullptr);

/// True when `text` is exactly one valid JSON value, i.e. when
/// json_parse accepts it; `error` as for json_parse.
bool json_valid(std::string_view text, std::string* error = nullptr);

/// Validates JSON Lines: every non-blank line must be one valid JSON
/// value. With `tolerate_torn_final` (the default), an invalid final
/// line that is NOT newline-terminated is accepted — the run ledger and
/// the crash-time flight recorder append line-at-a-time, so a process
/// dying mid-write leaves at most one torn trailing line, and readers
/// (analyze::parse_ledger, json_validate --jsonl) must shrug it off.
/// An invalid line anywhere else still fails, as does a torn line
/// followed by a newline. `lines` (if non-null) receives the number of
/// valid documents seen.
bool jsonl_valid(std::string_view text, std::string* error = nullptr,
                 bool tolerate_torn_final = true,
                 std::size_t* lines = nullptr);

/// Writes `v` as a JSON number token (shortest round-trip decimal).
/// Non-finite values have no JSON representation: they are written as
/// `null` and counted in json_nonfinite_warnings() so emitters can
/// surface that data was dropped instead of producing invalid JSON.
void write_json_number(std::ostream& os, double v);

/// Process-wide count of non-finite values null-ed out by
/// write_json_number since start (or the last reset).
std::uint64_t json_nonfinite_warnings();
void reset_json_nonfinite_warnings();

}  // namespace tagnn::obs
