// Tests for the one JSON module (src/obs/json): string escaping, the
// parser and validator built on it, JSON Lines validation with
// torn-final-line tolerance, and the non-finite-safe number writer.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/json.hpp"

namespace tagnn::obs {
namespace {

// --- json_escape -----------------------------------------------------

TEST(JsonEscape, HandlesSpecialCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonEscape, ShortFormsLowercaseHexAndRawHighBytes) {
  EXPECT_EQ(json_escape("a\tb\rc"), "a\\tb\\rc");
  EXPECT_EQ(json_escape("\x1f"), "\\u001f");
  EXPECT_EQ(json_escape("\x7f"), "\x7f");
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonEscape, RoundTripsEveryByteThroughParse) {
  std::string all;
  for (int c = 0; c < 256; ++c) all += static_cast<char>(c);
  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse('"' + json_escape(all) + '"', &v, &err)) << err;
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.as_string(), all);
}

// --- json_parse ------------------------------------------------------

TEST(Jparse, ParsesNestedDocument) {
  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse(
      R"({"a": 1.5, "b": [true, null, "xA"], "c": {"d": -2e3}})", &v,
      &err))
      << err;
  EXPECT_DOUBLE_EQ(v.number_at("a"), 1.5);
  const JsonValue* b = v.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->as_array().size(), 3u);
  EXPECT_TRUE(b->as_array()[0].as_bool());
  EXPECT_TRUE(b->as_array()[1].is_null());
  EXPECT_EQ(b->as_array()[2].as_string(), "xA");
  const JsonValue* c = v.find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->number_at("d"), -2000.0);
}

TEST(Jparse, RejectsMalformedAndNonFinite) {
  JsonValue v;
  EXPECT_FALSE(json_parse("{\"a\": }", &v));
  EXPECT_FALSE(json_parse("[1, 2", &v));
  EXPECT_FALSE(json_parse("NaN", &v));
  EXPECT_FALSE(json_parse("[Infinity]", &v));
  EXPECT_FALSE(json_parse("-Infinity", &v));
}

TEST(Jparse, DuplicateKeysKeepLastOccurrence) {
  JsonValue v;
  ASSERT_TRUE(json_parse(R"({"a": 1, "a": 2})", &v));
  EXPECT_DOUBLE_EQ(v.number_at("a"), 2.0);
}

// --- json_valid ------------------------------------------------------

TEST(JsonValid, AcceptsAndRejects) {
  EXPECT_TRUE(json_valid("{}"));
  EXPECT_TRUE(json_valid("[1, 2.5e-3, \"x\\n\", true, null]"));
  EXPECT_TRUE(json_valid("{\"a\": {\"b\": [{}]}}"));
  std::string err;
  EXPECT_FALSE(json_valid("", &err));
  EXPECT_FALSE(json_valid("{", &err));
  EXPECT_FALSE(json_valid("{\"a\": 1,}", &err));
  EXPECT_FALSE(json_valid("[1] trailing", &err));
  EXPECT_FALSE(json_valid("NaN", &err));
  EXPECT_FALSE(json_valid("{'a': 1}", &err));
}

TEST(JsonValid, RejectsBareNanAndInfinityTokens) {
  EXPECT_FALSE(json_valid("NaN"));
  EXPECT_FALSE(json_valid("Infinity"));
  EXPECT_FALSE(json_valid("-Infinity"));
  EXPECT_FALSE(json_valid("{\"x\": NaN}"));
  EXPECT_FALSE(json_valid("[1, Infinity]"));
  EXPECT_TRUE(json_valid("{\"x\": null}"));
}

TEST(JsonValid, RejectsNestingOneLevelPastTheLimit) {
  // The outermost value sits at depth 0, so 257 nested arrays reach
  // depth 256 (the limit) and 258 go one past it.
  const auto nested = [](int n) {
    return std::string(static_cast<std::size_t>(n), '[') +
           std::string(static_cast<std::size_t>(n), ']');
  };
  std::string err;
  EXPECT_TRUE(json_valid(nested(257), &err)) << err;
  EXPECT_FALSE(json_valid(nested(258), &err));
  EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
}

// --- jsonl_valid -----------------------------------------------------

TEST(JsonlValid, AcceptsLinesAndToleratesTornFinal) {
  std::size_t lines = 0;
  EXPECT_TRUE(jsonl_valid("{\"a\": 1}\n{\"b\": 2}\n", nullptr, true,
                               &lines));
  EXPECT_EQ(lines, 2u);
  // Blank lines (and CRLF endings) are fine.
  EXPECT_TRUE(jsonl_valid("{}\r\n\n  \n[1, 2]\n"));
  // A torn final line without a newline is the crash signature —
  // tolerated by default, rejected when asked to be strict.
  const std::string torn = "{\"a\": 1}\n{\"b\": tru";
  EXPECT_TRUE(jsonl_valid(torn, nullptr, true, &lines));
  EXPECT_EQ(lines, 1u);
  std::string error;
  EXPECT_FALSE(jsonl_valid(torn, &error, false));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  // The same garbage mid-file is always an error.
  EXPECT_FALSE(jsonl_valid("{\"b\": tru\n{\"a\": 1}\n", &error, true));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  // An empty file is a valid (if empty) log.
  EXPECT_TRUE(jsonl_valid(""));
}

// --- write_json_number -----------------------------------------------

TEST(WriteJsonNumber, NonFiniteBecomesNullAndCounts) {
  reset_json_nonfinite_warnings();
  std::ostringstream os;
  write_json_number(os, std::numeric_limits<double>::quiet_NaN());
  os << ",";
  write_json_number(os, std::numeric_limits<double>::infinity());
  os << ",";
  write_json_number(os, 0.1);
  EXPECT_EQ(os.str(), "null,null,0.1");
  EXPECT_EQ(json_nonfinite_warnings(), 2u);
  reset_json_nonfinite_warnings();
  EXPECT_EQ(json_nonfinite_warnings(), 0u);
}

// The writer's earlier definition, kept as the oracle: 15 significant
// digits through printf, checked by strtod, else 17.
std::string printf_oracle(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  if (std::strtod(buf, nullptr) != v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

std::string written(double v) {
  std::ostringstream os;
  write_json_number(os, v);
  return os.str();
}

TEST(WriteJsonNumber, MatchesPrintfOracleOnEdgeValues) {
  std::vector<double> values = {
      0.0, -0.0, 5e-324, -5e-324, DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX,
      1e21, 1e-7, 9007199254740993.0, 0.1, 1.0, -1.0, 100.0, 1e15, 1e16,
      1e17, 123456789012345678.0, 1e-5, 1e-4, 0.5, 2.5e-308, 1.0 / 3.0};
  for (const float f : {0.1f, 1.1f, 3.14159274f, 1e-45f, FLT_MIN, FLT_MAX,
                        16777217.0f, -2.5e-3f}) {
    values.push_back(static_cast<double>(f));
  }
  for (const double v : values) {
    EXPECT_EQ(written(v), printf_oracle(v)) << printf_oracle(v);
  }
  EXPECT_EQ(written(-0.0), "-0");
  EXPECT_EQ(written(1e21), "1e+21");
  EXPECT_EQ(written(1e-7), "1e-07");
}

TEST(WriteJsonNumber, MatchesPrintfOracleOnRandomBitPatterns) {
  Rng rng(20261020);
  std::size_t mismatches = 0;
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t bits = rng.next_u64();
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    const auto bits32 = static_cast<std::uint32_t>(rng.next_u64());
    float f;
    std::memcpy(&f, &bits32, sizeof(f));
    for (const double v : {d, static_cast<double>(f)}) {
      if (!std::isfinite(v)) continue;
      const std::string want = printf_oracle(v);
      if (written(v) != want && ++mismatches <= 5) {
        ADD_FAILURE() << "writer differs from printf for " << want;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(WriteJsonNumber, RoundTripsDoubles) {
  for (const double v : {1.0 / 3.0, 1e-300, 6.5511111111111113e-06,
                         -123456789.123456789, 2.2250738585072014e-308}) {
    std::ostringstream os;
    write_json_number(os, v);
    EXPECT_DOUBLE_EQ(std::strtod(os.str().c_str(), nullptr), v) << os.str();
  }
}

}  // namespace
}  // namespace tagnn::obs
