#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <iterator>
#include <set>
#include <string>

#include "obs/json.hpp"

namespace perftrack::serve {
namespace {

TEST(ProtocolTest, ParsesMinimalRequest) {
  Request r = parse_request(R"({"method":"ping"})");
  EXPECT_EQ(r.method, "ping");
  EXPECT_EQ(r.id, "");
  EXPECT_EQ(r.study, "");
  EXPECT_EQ(r.params.type, obs::JsonValue::Type::Null);
}

TEST(ProtocolTest, ParsesFullRequestAndEchoesRawId) {
  Request r = parse_request(
      R"({"id":42,"method":"append_experiment","study":"wrf",)"
      R"("params":{"path":"a.ptt","eps":0.05}})");
  EXPECT_EQ(r.id, "42");
  EXPECT_EQ(r.method, "append_experiment");
  EXPECT_EQ(r.study, "wrf");
  ASSERT_TRUE(r.params.is_object());
  EXPECT_EQ(r.params.at("path").string, "a.ptt");
  EXPECT_DOUBLE_EQ(r.params.at("eps").number, 0.05);
}

TEST(ProtocolTest, StringIdsKeepTheirQuotes) {
  Request r = parse_request(R"({"id":"req-7","method":"ping"})");
  EXPECT_EQ(r.id, "\"req-7\"");
  Response ok = make_result(r, "{}");
  EXPECT_EQ(render_response(ok), R"({"id":"req-7","ok":true,"result":{}})");
}

TEST(ProtocolTest, MalformedLinesAreBadRequests) {
  const char* bad[] = {
      "not json at all",
      "[1,2,3]",                         // not an object
      R"({"study":"x"})",                // no method
      R"({"method":7})",                 // ill-typed method
      R"({"method":"ping","study":7})",  // ill-typed study
      R"({"method":"ping","params":3})", // ill-typed params
  };
  for (const char* line : bad) {
    try {
      parse_request(line);
      FAIL() << "expected BadRequest for: " << line;
    } catch (const ServeError& error) {
      EXPECT_EQ(error.code(), ErrorCode::BadRequest) << line;
    }
  }
}

TEST(ProtocolTest, RenderedResponsesAreOneLineOfValidJson) {
  Request r = parse_request(R"({"id":1,"method":"ping"})");
  std::string ok = render_response(make_result(r, R"({"pong":true})"));
  EXPECT_EQ(ok.find('\n'), std::string::npos);
  obs::JsonValue v = obs::parse_json(ok);
  EXPECT_DOUBLE_EQ(v.at("id").number, 1.0);
  EXPECT_TRUE(v.at("ok").boolean);
  EXPECT_TRUE(v.at("result").at("pong").boolean);

  std::string err = render_response(
      make_error(r, ErrorCode::UnknownStudy, "no study named 'x'"));
  obs::JsonValue e = obs::parse_json(err);
  EXPECT_FALSE(e.at("ok").boolean);
  EXPECT_EQ(e.at("error").at("code").string, "unknown-study");
  EXPECT_EQ(e.at("error").at("message").string, "no study named 'x'");
}

TEST(ProtocolTest, ResponsesWithoutIdOmitTheField) {
  std::string line = render_response(
      make_error(Request{}, ErrorCode::BadRequest, "bad line"));
  obs::JsonValue v = obs::parse_json(line);
  EXPECT_FALSE(v.has("id"));
  EXPECT_EQ(v.at("error").at("code").string, "bad-request");
}

TEST(ProtocolTest, ErrorCodeNamesAreStableAndDistinct) {
  const ErrorCode codes[] = {
      ErrorCode::BadRequest,   ErrorCode::UnknownMethod,
      ErrorCode::UnknownStudy, ErrorCode::StudyExists,
      ErrorCode::InvalidConfig, ErrorCode::ParseFailure,
      ErrorCode::IoFailure,    ErrorCode::TrackingFailed,
      ErrorCode::ReplayFailed, ErrorCode::Overloaded,
      ErrorCode::ShuttingDown, ErrorCode::Internal,
  };
  std::set<std::string> names;
  for (ErrorCode code : codes) {
    std::string name(error_code_name(code));
    EXPECT_FALSE(name.empty());
    // Wire names are kebab-case and unique.
    for (char c : name) EXPECT_TRUE(std::islower(c) || c == '-') << name;
    names.insert(name);
  }
  EXPECT_EQ(names.size(), std::size(codes));
  EXPECT_EQ(error_code_name(ErrorCode::Overloaded), "overloaded");
  EXPECT_EQ(error_code_name(ErrorCode::ShuttingDown), "shutting-down");
}

// ---------------------------------------------------------------------------
// Protocol v2 pins. The version is additive: these tests are the contract
// that lets a v1 client keep talking to a v2 daemon and vice versa.

TEST(ProtocolV2Test, VersionIsTwo) { EXPECT_EQ(kProtocolVersion, 2u); }

TEST(ProtocolV2Test, TolerantReaderSkipsUnknownRequestFields) {
  // A v3 client may send fields this build has never heard of; the parse
  // must succeed and keep the fields it knows.
  Request r = parse_request(
      R"({"id":7,"method":"ping","future":{"deep":[1,{"x":2}]},)"
      R"("flag":true,"note":"from tomorrow"})");
  EXPECT_EQ(r.method, "ping");
  EXPECT_EQ(r.id, "7");
}

TEST(ProtocolV2Test, UnknownMethodsStayInsideTheClosedEnum) {
  // Forward compatibility for *methods* is the error enum, not a parse
  // failure: the request parses, and the service answers unknown-method.
  Request r = parse_request(R"({"method":"method_from_v9"})");
  EXPECT_EQ(r.method, "method_from_v9");
  EXPECT_EQ(error_code_name(ErrorCode::UnknownMethod), "unknown-method");
}

}  // namespace
}  // namespace perftrack::serve
