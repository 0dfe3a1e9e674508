#include "obs/json_reader.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>

#include "obs/json_writer.h"
#include "util/error.h"

namespace raidrel::obs {
namespace {

TEST(JsonReader, Scalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_TRUE(parse_json("true").as_bool());
  EXPECT_FALSE(parse_json("false").as_bool());
  EXPECT_DOUBLE_EQ(parse_json("-1.5e3").as_double(), -1500.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
  EXPECT_EQ(parse_json("  42  ").as_int64(), 42);
}

TEST(JsonReader, ArraysAndObjects) {
  const auto v = parse_json(R"({"a": [1, 2, 3], "b": {"c": "x"}})");
  ASSERT_TRUE(v.is_object());
  const auto& a = v.get("a");
  ASSERT_TRUE(a.is_array());
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.at(1).as_int64(), 2);
  EXPECT_EQ(v.get("b").get("c").as_string(), "x");
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW((void)v.get("missing"), ModelError);
}

TEST(JsonReader, Uint64KeepsFullPrecision) {
  // The whole reason the reader exists: 64-bit digests must not be coerced
  // through an IEEE double (53-bit mantissa) on their way back in.
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(parse_json("18446744073709551615").as_uint64(), max);
  EXPECT_EQ(parse_json("9007199254740993").as_uint64(),
            9007199254740993ull);  // 2^53 + 1, not representable as double
  EXPECT_THROW((void)parse_json("-1").as_uint64(), ModelError);
  EXPECT_THROW((void)parse_json("1.5").as_uint64(), ModelError);
  EXPECT_THROW((void)parse_json("18446744073709551616").as_uint64(),
               ModelError);
}

TEST(JsonReader, Int64Range) {
  EXPECT_EQ(parse_json("-9223372036854775808").as_int64(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(parse_json("9223372036854775807").as_int64(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_THROW((void)parse_json("9223372036854775808").as_int64(), ModelError);
}

TEST(JsonReader, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\/d\n\t\r\b\f")").as_string(),
            "a\"b\\c/d\n\t\r\b\f");
  EXPECT_EQ(parse_json(R"("Aé")").as_string(), "A\xc3\xa9");
}

TEST(JsonReader, KindMismatchThrows) {
  EXPECT_THROW((void)parse_json("1").as_string(), ModelError);
  EXPECT_THROW((void)parse_json("\"x\"").as_double(), ModelError);
  EXPECT_THROW((void)parse_json("[]").as_bool(), ModelError);
  EXPECT_THROW((void)parse_json("{}").at(0), ModelError);
}

TEST(JsonReader, MalformedDocumentsThrow) {
  EXPECT_THROW(parse_json(""), ModelError);
  EXPECT_THROW(parse_json("{"), ModelError);
  EXPECT_THROW(parse_json("[1,]"), ModelError);
  EXPECT_THROW(parse_json("{\"a\" 1}"), ModelError);
  EXPECT_THROW(parse_json("tru"), ModelError);
  EXPECT_THROW(parse_json("1 2"), ModelError);  // trailing garbage
  EXPECT_THROW(parse_json("\"unterminated"), ModelError);
  EXPECT_THROW(parse_json("nan"), ModelError);
  EXPECT_THROW(parse_json("-"), ModelError);
  EXPECT_THROW(parse_json("1.e3"), ModelError);
}

TEST(JsonReader, DuplicateObjectKeysRejected) {
  // Legal JSON, but our writer never produces it — a duplicate means a
  // corrupted or hand-edited manifest, where "first key wins" would
  // silently pick one of two conflicting values.
  EXPECT_THROW(parse_json(R"({"a": 1, "a": 2})"), ModelError);
  EXPECT_THROW(parse_json(R"({"a": 1, "b": {"x": 1, "x": 2}})"), ModelError);
  // Same key at different nesting levels is fine.
  EXPECT_NO_THROW(parse_json(R"({"a": 1, "b": {"a": 2}})"));
}

TEST(JsonReader, NonFiniteNumbersRejected) {
  // 1e999 parses as a valid token but overflows to infinity; the literal
  // spellings are not JSON at all. None may come back as a usable double.
  EXPECT_THROW((void)parse_json("1e999").as_double(), ModelError);
  EXPECT_THROW((void)parse_json("-1e999").as_double(), ModelError);
  EXPECT_THROW((void)parse_json(R"({"v": 1e999})").get("v").as_double(),
               ModelError);
  EXPECT_THROW(parse_json("NaN"), ModelError);
  EXPECT_THROW(parse_json("Infinity"), ModelError);
  EXPECT_THROW(parse_json("-Infinity"), ModelError);
  // Subnormals are finite and must keep working.
  EXPECT_EQ(parse_json("-2.5e-308").as_double(), -2.5e-308);
}

TEST(JsonReader, EveryTruncationOfARealDocumentThrows) {
  // A crash mid-write leaves a prefix of a valid manifest; every strict
  // prefix must be a clean ModelError, never a crash or a silent partial
  // parse.
  std::ostringstream os;
  {
    JsonWriter w(os);
    w.begin_object();
    w.kv("schema", "raidrel-sweep-manifest/2");
    w.kv("digest", std::uint64_t{17783286741236303588ull});
    w.key("cells");
    w.begin_array();
    w.begin_object();
    w.kv("label", "restore=12 group=4");
    w.kv("mean", 3.141592653589793);
    w.end_object();
    w.end_array();
    w.end_object();
  }
  const std::string doc = os.str();
  ASSERT_NO_THROW(parse_json(doc));
  for (std::size_t len = 0; len < doc.size(); ++len) {
    EXPECT_THROW(parse_json(doc.substr(0, len)), ModelError)
        << "prefix of length " << len << " parsed";
  }
}

TEST(JsonReader, DepthLimit) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_THROW(parse_json(deep), ModelError);
}

TEST(JsonReader, RoundTripsWriterOutput) {
  // Writer -> reader -> every value identical, including a double that
  // needs all 17 significant digits and a max-range uint64.
  std::ostringstream os;
  {
    JsonWriter w(os);
    w.begin_object();
    w.kv("digest", std::uint64_t{18446744073709551615ull});
    w.kv("mean", 0.1);
    w.kv("pi", 3.141592653589793);
    w.kv("neg", -2.5e-308);
    w.kv("label", "scrub=168 \"quoted\"\n");
    w.kv("ok", true);
    w.key("list");
    w.begin_array();
    w.value(std::int64_t{-3});
    w.null();
    w.end_array();
    w.end_object();
  }
  const auto v = parse_json(os.str());
  EXPECT_EQ(v.get("digest").as_uint64(), 18446744073709551615ull);
  EXPECT_EQ(v.get("mean").as_double(), 0.1);  // exact, not just near
  EXPECT_EQ(v.get("pi").as_double(), 3.141592653589793);
  EXPECT_EQ(v.get("neg").as_double(), -2.5e-308);
  EXPECT_EQ(v.get("label").as_string(), "scrub=168 \"quoted\"\n");
  EXPECT_TRUE(v.get("ok").as_bool());
  EXPECT_EQ(v.get("list").at(0).as_int64(), -3);
  EXPECT_TRUE(v.get("list").at(1).is_null());
}

}  // namespace
}  // namespace raidrel::obs
