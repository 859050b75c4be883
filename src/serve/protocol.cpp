#include "serve/protocol.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace perftrack::serve {

std::string_view error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::BadRequest: return "bad-request";
    case ErrorCode::UnknownMethod: return "unknown-method";
    case ErrorCode::UnknownStudy: return "unknown-study";
    case ErrorCode::StudyExists: return "study-exists";
    case ErrorCode::InvalidConfig: return "invalid-config";
    case ErrorCode::ParseFailure: return "parse-failure";
    case ErrorCode::IoFailure: return "io-failure";
    case ErrorCode::TrackingFailed: return "tracking-failed";
    case ErrorCode::ReplayFailed: return "replay-failed";
    case ErrorCode::Overloaded: return "overloaded";
    case ErrorCode::ShuttingDown: return "shutting-down";
    case ErrorCode::Internal: return "internal";
  }
  return "internal";
}

namespace {

/// Re-render a scalar id value exactly as the response should echo it.
/// Only scalars are legal ids; containers are a bad request.
std::string render_id(const obs::JsonValue& id) {
  switch (id.type) {
    case obs::JsonValue::Type::String: {
      return "\"" + obs::escape_json(id.string) + "\"";
    }
    case obs::JsonValue::Type::Number: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.12g", id.number);
      return buf;
    }
    case obs::JsonValue::Type::Bool:
      return id.boolean ? "true" : "false";
    case obs::JsonValue::Type::Null:
      return "null";
    default:
      throw ServeError(ErrorCode::BadRequest,
                       "request id must be a scalar (string or number)");
  }
}

}  // namespace

Request parse_request(const std::string& line) {
  obs::JsonValue doc;
  try {
    doc = obs::parse_json(line);
  } catch (const Error& error) {
    throw ServeError(ErrorCode::BadRequest,
                     std::string("malformed request JSON: ") + error.what());
  }
  if (!doc.is_object())
    throw ServeError(ErrorCode::BadRequest,
                     "request must be a JSON object with a \"method\" field");

  Request request;
  if (doc.has("id")) request.id = render_id(doc.at("id"));
  if (!doc.has("method") || !doc.at("method").is_string())
    throw ServeError(ErrorCode::BadRequest,
                     "request needs a string \"method\" field");
  request.method = doc.at("method").string;
  if (doc.has("study")) {
    if (!doc.at("study").is_string())
      throw ServeError(ErrorCode::BadRequest,
                       "\"study\" must be a string");
    request.study = doc.at("study").string;
  }
  auto params = doc.object.find("params");
  if (params != doc.object.end()) {
    if (!params->second.is_object())
      throw ServeError(ErrorCode::BadRequest,
                       "\"params\" must be an object");
    // Moved, not copied: an inline trace is most of a request's bytes.
    request.params = std::move(params->second);
  }
  return request;
}

std::string render_response(const Response& response) {
  std::string out;
  // Room for the envelope and the newline the transports append, so a
  // large result is copied once.
  out.reserve(response.id.size() + response.result_json.size() + 64);
  out += "{";
  if (!response.id.empty()) out += "\"id\":" + response.id + ",";
  if (response.ok) {
    out += "\"ok\":true,\"result\":";
    out += response.result_json.empty() ? "{}" : response.result_json;
  } else {
    out += "\"ok\":false,\"error\":{\"code\":\"";
    out += error_code_name(response.code);
    out += "\",\"message\":\"" + obs::escape_json(response.message) + "\"}";
  }
  out += "}";
  return out;
}

Response make_result(const Request& request, std::string result_json) {
  Response response;
  response.id = request.id;
  response.ok = true;
  response.result_json = std::move(result_json);
  return response;
}

Response make_error(const Request& request, ErrorCode code,
                    const std::string& message) {
  Response response;
  response.id = request.id;
  response.ok = false;
  response.code = code;
  response.message = message;
  return response;
}

void LineFramer::clear() {
  buffer_.clear();
  start_ = scanned_ = 0;
  discarding_ = false;
}

bool LineFramer::take(std::string& line, LineRead& status) {
  const char* data = buffer_.data();
  const void* newline =
      std::memchr(data + scanned_, '\n', buffer_.size() - scanned_);
  if (newline == nullptr) {
    // Compact once per read, not once per line: a block holding many
    // short lines is then moved at most once.
    buffer_.erase(0, start_);
    start_ = 0;
    scanned_ = buffer_.size();
    if (discarding_ || (cap_ != 0 && buffer_.size() > cap_)) {
      buffer_.clear();
      scanned_ = 0;
      discarding_ = true;
    }
    return false;
  }
  const std::size_t end = static_cast<std::size_t>(
      static_cast<const char*>(newline) - data);
  const std::size_t begin = start_;
  start_ = scanned_ = end + 1;
  if (discarding_ || (cap_ != 0 && end - begin > cap_)) {
    discarding_ = false;
    status = LineRead::Overlong;
    return true;
  }
  line.assign(data + begin, end - begin);
  status = LineRead::Line;
  return true;
}

LineRead LineFramer::finish(std::string& line) {
  if (discarding_) {
    discarding_ = false;
    return LineRead::Overlong;
  }
  // take() has compacted the buffer and capped it, so what is left is
  // one unterminated line within the cap.
  if (buffer_.empty()) return LineRead::Eof;
  line.swap(buffer_);
  clear();
  return LineRead::Line;
}

}  // namespace perftrack::serve
