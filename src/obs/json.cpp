#include "obs/json.hpp"

#include <atomic>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <ostream>
#include <sstream>

namespace tagnn::obs {

std::string json_escape(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (u < 0x20) {
          out += "\\u00";
          out += kHex[u >> 4];
          out += kHex[u & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const JsonValue* hit = nullptr;
  for (const JsonMember& m : object_) {
    if (m.first == key) hit = &m.second;
  }
  return hit;
}

double JsonValue::number_at(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr ? v->as_number(fallback) : fallback;
}

std::string JsonValue::string_at(std::string_view key,
                                 std::string_view fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_string() ? v->as_string()
                                        : std::string(fallback);
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}
JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = d;
  return v;
}
JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}
JsonValue JsonValue::make_array(JsonArray a) {
  JsonValue v;
  v.type_ = Type::kArray;
  v.array_ = std::move(a);
  return v;
}
JsonValue JsonValue::make_object(JsonObject o) {
  JsonValue v;
  v.type_ = Type::kObject;
  v.object_ = std::move(o);
  return v;
}

namespace {

constexpr int kMaxDepth = 256;

class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  bool run(JsonValue* out, std::string* error) {
    skip_ws();
    if (!value(out, 0)) {
      emit(error);
      return false;
    }
    skip_ws();
    if (pos_ != s_.size()) {
      fail("trailing content after JSON value");
      emit(error);
      return false;
    }
    return true;
  }

 private:
  void emit(std::string* error) const {
    if (error != nullptr) {
      std::ostringstream os;
      os << err_ << " at byte " << err_pos_;
      *error = os.str();
    }
  }

  bool fail(const char* msg) {
    if (err_.empty()) {
      err_ = msg;
      err_pos_ = pos_;
    }
    return false;
  }

  bool eof() const { return pos_ >= s_.size(); }
  char peek() const { return s_[pos_]; }

  void skip_ws() {
    while (!eof() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                      s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) {
      return fail("invalid literal");
    }
    pos_ += word.size();
    return true;
  }

  bool value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (eof()) return fail("unexpected end of input");
    switch (peek()) {
      case '{':
        return object(out, depth);
      case '[':
        return array(out, depth);
      case '"': {
        std::string s;
        if (!string(&s)) return false;
        *out = JsonValue::make_string(std::move(s));
        return true;
      }
      case 't':
        if (!literal("true")) return false;
        *out = JsonValue::make_bool(true);
        return true;
      case 'f':
        if (!literal("false")) return false;
        *out = JsonValue::make_bool(false);
        return true;
      case 'n':
        if (!literal("null")) return false;
        *out = JsonValue::make_null();
        return true;
      case 'N':
      case 'I':
        return fail("NaN/Infinity are not valid JSON (expected null)");
      default:
        return number(out);
    }
  }

  bool object(JsonValue* out, int depth) {
    ++pos_;  // '{'
    JsonObject members;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      *out = JsonValue::make_object(std::move(members));
      return true;
    }
    for (;;) {
      skip_ws();
      if (eof() || peek() != '"') return fail("expected object key");
      std::string key;
      if (!string(&key)) return false;
      skip_ws();
      if (eof() || peek() != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      JsonValue v;
      if (!value(&v, depth + 1)) return false;
      members.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (eof()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        *out = JsonValue::make_object(std::move(members));
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array(JsonValue* out, int depth) {
    ++pos_;  // '['
    JsonArray items;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      *out = JsonValue::make_array(std::move(items));
      return true;
    }
    for (;;) {
      skip_ws();
      JsonValue v;
      if (!value(&v, depth + 1)) return false;
      items.push_back(std::move(v));
      skip_ws();
      if (eof()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        *out = JsonValue::make_array(std::move(items));
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool string(std::string* out) {
    ++pos_;  // '"'
    std::string s;
    while (!eof()) {
      const unsigned char c = static_cast<unsigned char>(s_[pos_]);
      if (c == '"') {
        ++pos_;
        *out = std::move(s);
        return true;
      }
      if (c < 0x20) return fail("unescaped control character in string");
      if (c == '\\') {
        ++pos_;
        if (eof()) return fail("truncated escape");
        const char e = s_[pos_];
        switch (e) {
          case '"':
            s += '"';
            ++pos_;
            break;
          case '\\':
            s += '\\';
            ++pos_;
            break;
          case '/':
            s += '/';
            ++pos_;
            break;
          case 'b':
            s += '\b';
            ++pos_;
            break;
          case 'f':
            s += '\f';
            ++pos_;
            break;
          case 'n':
            s += '\n';
            ++pos_;
            break;
          case 'r':
            s += '\r';
            ++pos_;
            break;
          case 't':
            s += '\t';
            ++pos_;
            break;
          case 'u': {
            ++pos_;
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              if (eof() ||
                  !std::isxdigit(static_cast<unsigned char>(peek()))) {
                return fail("invalid \\u escape");
              }
              const char h = peek();
              cp = cp * 16 +
                   static_cast<unsigned>(
                       h <= '9'   ? h - '0'
                       : h <= 'F' ? h - 'A' + 10
                                  : h - 'a' + 10);
              ++pos_;
            }
            // UTF-8 encode the BMP code point; surrogate pairs are kept
            // as two separate 3-byte sequences (diagnosis data never
            // contains astral-plane text, and round-tripping is not a
            // goal of this reader).
            if (cp < 0x80) {
              s += static_cast<char>(cp);
            } else if (cp < 0x800) {
              s += static_cast<char>(0xC0 | (cp >> 6));
              s += static_cast<char>(0x80 | (cp & 0x3F));
            } else {
              s += static_cast<char>(0xE0 | (cp >> 12));
              s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
              s += static_cast<char>(0x80 | (cp & 0x3F));
            }
            break;
          }
          default:
            return fail("invalid escape character");
        }
      } else {
        s += static_cast<char>(c);
        ++pos_;
      }
    }
    return fail("unterminated string");
  }

  bool digits() {
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
      return fail("expected digit");
    }
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
      ++pos_;
    }
    return true;
  }

  bool number(JsonValue* out) {
    const std::size_t begin = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof()) return fail("truncated number");
    if (peek() == 'I' || peek() == 'N') {
      return fail("NaN/Infinity are not valid JSON (expected null)");
    }
    if (peek() == '0') {
      ++pos_;
    } else if (std::isdigit(static_cast<unsigned char>(peek()))) {
      if (!digits()) return false;
    } else {
      return fail("invalid number");
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (!digits()) return false;
    }
    const std::string text(s_.substr(begin, pos_ - begin));
    *out = JsonValue::make_number(std::strtod(text.c_str(), nullptr));
    return true;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::string err_;
  std::size_t err_pos_ = 0;
};

}  // namespace

bool json_parse(std::string_view text, JsonValue* out, std::string* error) {
  JsonValue v;
  if (!Parser(text).run(&v, error)) {
    *out = JsonValue();
    return false;
  }
  *out = std::move(v);
  return true;
}

bool json_valid(std::string_view text, std::string* error) {
  JsonValue ignored;
  return json_parse(text, &ignored, error);
}

bool jsonl_valid(std::string_view text, std::string* error,
                 bool tolerate_torn_final, std::size_t* lines) {
  std::size_t valid = 0;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  bool ok = true;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const bool terminated = nl != std::string_view::npos;
    std::string_view line =
        text.substr(pos, terminated ? nl - pos : std::string_view::npos);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    ++line_no;
    pos = terminated ? nl + 1 : text.size();
    if (line.find_first_not_of(" \t") == std::string_view::npos) continue;
    std::string line_error;
    if (json_valid(line, &line_error)) {
      ++valid;
      continue;
    }
    if (!terminated && tolerate_torn_final) continue;  // crash mid-write
    if (error != nullptr) {
      std::ostringstream os;
      os << "line " << line_no << ": " << line_error;
      *error = os.str();
    }
    ok = false;
    break;
  }
  if (lines != nullptr) *lines = valid;
  return ok;
}

namespace {

std::atomic<std::uint64_t>& nonfinite_counter() {
  static std::atomic<std::uint64_t> c{0};
  return c;
}

}  // namespace

void write_json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    nonfinite_counter().fetch_add(1, std::memory_order_relaxed);
    os << "null";
    return;
  }
  // Shortest decimal that round-trips: try 15 significant digits, fall
  // back to 17 (always exact for IEEE binary64). to_chars with a
  // precision is printf's %.*g in the "C" locale: the same bytes.
  char buf[32];
  constexpr auto kGeneral = std::chars_format::general;
  auto res = std::to_chars(buf, buf + sizeof(buf), v, kGeneral, 15);
  double back = 0;
  if (std::from_chars(buf, res.ptr, back).ec != std::errc{} || back != v) {
    res = std::to_chars(buf, buf + sizeof(buf), v, kGeneral, 17);
  }
  os.write(buf, res.ptr - buf);
}

std::uint64_t json_nonfinite_warnings() {
  return nonfinite_counter().load(std::memory_order_relaxed);
}

void reset_json_nonfinite_warnings() {
  nonfinite_counter().store(0, std::memory_order_relaxed);
}

}  // namespace tagnn::obs
