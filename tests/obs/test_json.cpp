#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/error.hpp"

namespace perftrack::obs {
namespace {

TEST(JsonWriterTest, NestedContainersAndCommas) {
  JsonWriter w;
  w.begin_object()
      .key("name").value("run")
      .key("ids").begin_array().value(std::uint64_t{1})
                 .value(std::uint64_t{2}).end_array()
      .key("nested").begin_object().key("ok").value(true).end_object()
      .key("none").null()
      .end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"run\",\"ids\":[1,2],"
            "\"nested\":{\"ok\":true},\"none\":null}");
}

TEST(JsonWriterTest, EscapesStrings) {
  JsonWriter w;
  w.value("quote\" slash\\ tab\t newline\n");
  EXPECT_EQ(w.str(), "\"quote\\\" slash\\\\ tab\\t newline\\n\"");
  EXPECT_EQ(escape_json(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array()
      .value(std::numeric_limits<double>::infinity())
      .value(std::numeric_limits<double>::quiet_NaN())
      .value(1.5)
      .end_array();
  EXPECT_EQ(w.str(), "[null,null,1.5]");
}

TEST(JsonParseTest, Scalars) {
  EXPECT_EQ(parse_json("null").type, JsonValue::Type::Null);
  EXPECT_TRUE(parse_json("true").boolean);
  EXPECT_FALSE(parse_json("false").boolean);
  EXPECT_DOUBLE_EQ(parse_json("-12.5e2").number, -1250.0);
  EXPECT_EQ(parse_json("\"hi\"").string, "hi");
}

TEST(JsonParseTest, UnicodeEscapes) {
  JsonValue v = parse_json("\"A\\u0042\\u00e9\"");
  EXPECT_EQ(v.string, "AB\xc3\xa9");  // é as UTF-8
}

TEST(JsonParseTest, ObjectsAndArrays) {
  JsonValue v = parse_json(R"({"a": [1, 2, 3], "b": {"c": "d"}})");
  ASSERT_TRUE(v.is_object());
  ASSERT_TRUE(v.at("a").is_array());
  ASSERT_EQ(v.at("a").array.size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("a").array[1].number, 2.0);
  EXPECT_EQ(v.at("b").at("c").string, "d");
  EXPECT_TRUE(v.has("a"));
  EXPECT_FALSE(v.has("missing"));
}

TEST(JsonParseTest, MalformedInputThrows) {
  EXPECT_THROW(parse_json("{"), ParseError);
  EXPECT_THROW(parse_json("[1,]"), ParseError);
  EXPECT_THROW(parse_json("\"unterminated"), ParseError);
  EXPECT_THROW(parse_json("1 trailing"), ParseError);
  EXPECT_THROW(parse_json(""), ParseError);
}

TEST(JsonParseTest, NestingDeeperThanTheCapThrows) {
  // A request line of 200k '[' used to overflow the parser's stack.
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(parse_json(nested(256)).is_array());
  EXPECT_THROW(parse_json(nested(257)), ParseError);
  EXPECT_THROW(parse_json(std::string(200000, '[')), ParseError);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_THROW(parse_json(objects), ParseError);
}

TEST(JsonRoundTripTest, WriterOutputParsesBack) {
  JsonWriter w;
  w.begin_object()
      .key("label").value("bench \"x\"")
      .key("wall_ns").value(std::uint64_t{123456789})
      .key("coverage").value(0.875)
      .key("stages").begin_array()
        .begin_object().key("name").value("dbscan").end_object()
        .begin_object().key("name").value("nw").end_object()
      .end_array()
      .end_object();

  JsonValue v = parse_json(w.str());
  EXPECT_EQ(v.at("label").string, "bench \"x\"");
  EXPECT_DOUBLE_EQ(v.at("wall_ns").number, 123456789.0);
  EXPECT_DOUBLE_EQ(v.at("coverage").number, 0.875);
  ASSERT_EQ(v.at("stages").array.size(), 2u);
  EXPECT_EQ(v.at("stages").array[1].at("name").string, "nw");
}

/// FNV-1a 64 of `text`, to pin long outputs by digest.
std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string parse_back(const std::string& escaped) {
  return parse_json("\"" + escaped + "\"").string;
}

TEST(JsonRoundTripTest, EveryByteEscapesToTheGoldenTextAndParsesBack) {
  std::string bytes;
  for (int b = 0; b < 256; ++b) bytes += static_cast<char>(b);
  // Golden: control bytes as \uXXXX (or their short escapes), '"' and '\'
  // escaped, every other byte (0x7f-0xff included) passed through.
  std::string golden =
      "\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t"
      "\\n\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014"
      "\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d"
      "\\u001e\\u001f !\\\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRS"
      "TUVWXYZ[\\\\]^_`abcdefghijklmnopqrstuvwxyz{|}~";
  for (int b = 0x7f; b < 256; ++b) golden += static_cast<char>(b);
  EXPECT_EQ(escape_json(bytes), golden);
  EXPECT_EQ(parse_back(escape_json(bytes)), bytes);
}

TEST(JsonRoundTripTest, EscapesInFirstAndLastPosition) {
  const std::string quote_newline("\"middle\n", 8);
  EXPECT_EQ(escape_json(quote_newline), "\\\"middle\\n");
  EXPECT_EQ(parse_back(escape_json(quote_newline)), quote_newline);
  const std::string control_backslash("\x01 plain \\", 9);
  EXPECT_EQ(escape_json(control_backslash), "\\u0001 plain \\\\");
  EXPECT_EQ(parse_back(escape_json(control_backslash)), control_backslash);
  for (const std::string& only : {std::string(1, '\0'), std::string("\""),
                                  std::string(""), std::string("x")})
    EXPECT_EQ(parse_back(escape_json(only)), only);
}

TEST(JsonRoundTripTest, LongPlainRunWithSparseEscapes) {
  // 1 MiB of letters with one escaped byte every 4099 bytes, cycling
  // through the bytes escape_json rewrites.
  const std::string escaped("\"\\\n\r\t\x01\x1f", 7);
  std::string text;
  for (std::size_t i = 0; i < (1u << 20); ++i)
    text += i % 4099 == 4098 ? escaped[(i / 4099) % escaped.size()]
                             : static_cast<char>('a' + i % 26);
  const std::string out = escape_json(text);
  EXPECT_EQ(out.size(), 1049119u);
  EXPECT_EQ(fnv1a64(out), 9113681173100896493ull);
  EXPECT_EQ(parse_back(out), text);
}

}  // namespace
}  // namespace perftrack::obs
