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

#include <cstddef>
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
/// writer; the service turns caught ServeErrors into error responses.
struct Response {
  std::string id;                  ///< raw JSON id echoed from the request
  bool ok = true;
  ErrorCode code = ErrorCode::Internal;  ///< meaningful when !ok
  std::string message;             ///< error message when !ok
  std::string result_json;         ///< rendered result object when ok
};

/// Render `response` as one NDJSON line (no trailing newline).
std::string render_response(const Response& response);

/// Success response with `result_json` (a complete JSON object, e.g. from
/// a JsonWriter; "{}" for methods with nothing to report).
Response make_result(const Request& request, std::string result_json);

/// Error response for `code`/`message`, echoing the request id.
Response make_error(const Request& request, ErrorCode code,
                    const std::string& message);

/// What one pull from a line source produced. An overlong line is
/// reported without ever being buffered whole.
enum class LineRead { Eof, Line, Overlong };

/// NDJSON line framing over a byte stream, shared by perftrackd's socket
/// transports and NdjsonClient. Bytes are read in blocks of kReadBlock,
/// and the newline search resumes where the last one stopped, so each
/// byte is examined once. Past `max_line_bytes` (0 = no cap) a line's
/// bytes are dropped as they arrive, so memory stays within the cap plus
/// one block however long the line runs.
class LineFramer {
public:
  static constexpr std::size_t kReadBlock = 64 * 1024;

  explicit LineFramer(std::size_t max_line_bytes = 0)
      : cap_(max_line_bytes) {}

  /// The next line, without its '\n', into `line`. `read(into, room)`
  /// fills up to `room` bytes and returns the count, 0 at the end of the
  /// stream, or a negative value on failure (reported as Eof). An
  /// unterminated last line is still a line.
  template <typename Read>
  LineRead next(std::string& line, Read&& read) {
    LineRead status = LineRead::Eof;
    while (!take(line, status)) {
      const std::size_t size = buffer_.size();
      buffer_.resize(size + kReadBlock);
      std::ptrdiff_t n = 0;
      try {
        n = read(buffer_.data() + size, kReadBlock);
      } catch (...) {
        buffer_.resize(size);
        throw;
      }
      buffer_.resize(size + static_cast<std::size_t>(n > 0 ? n : 0));
      if (n < 0) return LineRead::Eof;
      if (n == 0) return finish(line);
    }
    return status;
  }

  /// Forget every buffered byte (a new connection starts clean).
  void clear();

private:
  /// Pop a complete line if one is buffered; otherwise drop consumed and
  /// overlong bytes and return false.
  bool take(std::string& line, LineRead& status);
  /// The end of the stream, after take() found no complete line.
  LineRead finish(std::string& line);

  std::size_t cap_;
  std::string buffer_;
  std::size_t start_ = 0;    ///< where the first unconsumed line begins
  std::size_t scanned_ = 0;  ///< bytes before this hold no '\n' past start_
  bool discarding_ = false;  ///< inside an overlong line, dropping bytes
};

}  // namespace perftrack::serve
