#pragma once
// Wire protocol of the perftrackd tracking service.
//
// Requests and responses are newline-delimited JSON objects ("NDJSON"):
// one complete JSON document per line, no framing beyond the newline. The
// dialect is the same subset obs/json.hpp already reads and writes, so the
// daemon carries no extra parser. A request names a method, usually a
// study, and an optional bag of parameters; the response echoes the
// request's id (verbatim, so callers can correlate pipelined requests) and
// carries either a result object or a typed error:
//
//   -> {"id":1,"method":"append_experiment","study":"wrf",
//       "params":{"path":"wrf_128.ptt"}}
//   <- {"id":1,"ok":true,"result":{"slot":0,"experiments":1}}
//   <- {"id":2,"ok":false,"error":{"code":"unknown-study",
//       "message":"no study named 'wrg' (did you open_study it?)"}}
//
// Error codes are a closed, stable enum (ErrorCode) rather than free text:
// clients branch on the code, humans read the message. In particular
// `overloaded` is the backpressure signal — the request was *rejected
// before any work happened* and can be retried — and `shutting-down`
// marks requests that arrived after a drain began. docs/SERVING.md is the
// protocol reference.

#include <cstdint>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace perftrack::serve {

/// Protocol revision spoken by this build. v2 added the `hello` method,
/// the `proto` field in the `ping` result, and the capability list —
/// all additive: a v1 client never sends `hello` and ignores fields it
/// does not know, so both directions interoperate across versions. The
/// tolerant-reader rule (unknown request fields are skipped, unknown
/// methods answer with the closed error-code enum) is pinned by tests.
inline constexpr std::uint64_t kProtocolVersion = 2;

/// Closed set of protocol error codes. Stable wire strings via
/// error_code_name(); clients dispatch on these, not on messages.
enum class ErrorCode {
  BadRequest,    ///< malformed JSON, missing/ill-typed fields
  UnknownMethod, ///< method name not in the dispatch table
  UnknownStudy,  ///< study was never opened (or was closed)
  StudyExists,   ///< open_study on a name already open
  InvalidConfig, ///< open_study parameters failed SessionConfig::validate
  ParseFailure,  ///< trace ingestion failed (strict mode)
  IoFailure,     ///< trace file unreadable / report unwritable
  TrackingFailed,///< clustering/retrack failed (gap budget, bad sequence)
  ReplayFailed,  ///< evicted study cannot be rebuilt (a logged trace is gone)
  Overloaded,    ///< connection cap reached — refused before any work; retry
  ShuttingDown,  ///< drain in progress, no new work accepted
  Internal,      ///< anything else (a bug or an unhandled Error)
};

/// Wire string of a code ("bad-request", "overloaded", ...).
std::string_view error_code_name(ErrorCode code);

/// Service-level failure carrying its wire code. Handlers throw these;
/// the dispatcher renders them as error responses.
class ServeError : public Error {
public:
  ServeError(ErrorCode code, const std::string& message)
      : Error(message), code_(code) {}
  ErrorCode code() const { return code_; }

private:
  ErrorCode code_;
};

/// One parsed request line. `id` is kept as raw JSON text (number or
/// string), echoed verbatim in the response; empty means the request had
/// no id and the response carries none.
struct Request {
  std::string id;      ///< raw JSON of the id field ("" = absent)
  std::string method;
  std::string study;   ///< "" when the method takes no study
  obs::JsonValue params;  ///< params object (Null when absent)
};

/// Parse one NDJSON request line. Throws ServeError{BadRequest} on
/// malformed JSON, a non-object document, or a missing/ill-typed method.
Request parse_request(const std::string& line);

/// One response under construction. Handlers fill `result` through the
/// writer; the dispatcher turns caught ServeErrors into error responses.
struct Response {
  std::string id;                  ///< raw JSON id echoed from the request
  bool ok = true;
  ErrorCode code = ErrorCode::Internal;  ///< meaningful when !ok
  std::string message;             ///< error message when !ok
  std::string result_json;         ///< rendered result object when ok

  /// Verbatim passthrough: when non-empty, render_response() returns this
  /// exact line and every other field is ignored. The shard front answers
  /// proxied requests with the worker's bytes unchanged (id echo
  /// included), which is what makes sharded reads byte-identical to a
  /// single daemon.
  std::string raw;
};

/// Render `response` as one NDJSON line (no trailing newline).
std::string render_response(const Response& response);

/// Success response with `result_json` (a complete JSON object, e.g. from
/// a JsonWriter; "{}" for methods with nothing to report).
Response make_result(const Request& request, std::string result_json);

/// Error response for `code`/`message`, echoing the request id.
Response make_error(const Request& request, ErrorCode code,
                    const std::string& message);

}  // namespace perftrack::serve
