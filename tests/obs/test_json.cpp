#include "obs/json.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace perftrack::obs
