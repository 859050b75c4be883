#pragma once
// Structured NDJSON access log and slow-request tracing for perftrackd.
//
// One line per request, written after the response bytes are handed to
// the transport:
//
//   {"ts_ms":1722470000123,"id":7,"method":"regions","study":"wrf",
//    "outcome":"ok","parse_us":12,"lock_us":85,"handler_us":912,
//    "write_us":6,"total_us":945}
//
// `id` is the request's raw JSON id (number or string) echoed verbatim,
// `outcome` is "ok" or the protocol error code, and the *_us fields are
// the phase breakdown the metrics histograms aggregate — the access log
// is the per-request view of the same decomposition. Rejected requests
// (overlong or bad JSON, draining) appear too, with the phases they never
// reached at 0.
//
// Slow-request capture: with a threshold set (perftrackd --slow-ms N), a
// request whose total exceeds it gets a second line, "slow":true, that
// embeds the request's span tree — the telemetry spans recorded on the
// connection's thread during the request window (serve_request -> endpoint ->
// session/pipeline stages), with per-span wall time. Telemetry recording
// must be on for spans to appear; perftrackd enables it when --slow-ms
// is given. Threshold 0 dumps every request (handy in tests).
//
// Thread safety: writes are serialized by an internal mutex; each record
// is one write() call so concurrent connections never interleave lines.

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>

namespace perftrack::serve {

/// Phase breakdown and identity of one served request.
struct RequestRecord {
  std::string id;       ///< raw JSON id ("" = absent)
  std::string method;   ///< "" for unparseable lines
  std::string study;
  std::string outcome;  ///< "ok" or the protocol error code
  std::uint64_t parse_ns = 0;
  std::uint64_t lock_ns = 0;
  std::uint64_t handler_ns = 0;
  std::uint64_t write_ns = 0;
  std::uint64_t total_ns = 0;
};

/// Render `record` as one access-log JSON line (no trailing newline).
std::string access_record_json(const RequestRecord& record);

/// Render the slow-request line: the record plus the span tree observed
/// on the calling thread between `begin_ns` and `end_ns` (telemetry
/// clock). Call on the thread that ran the handler.
std::string slow_record_json(const RequestRecord& record,
                             std::uint64_t begin_ns, std::uint64_t end_ns);

class AccessLog {
public:
  /// Log lines go to `out`, which must outlive the log. The stream is
  /// flushed per record so `tail -f` and crashes both see complete lines.
  explicit AccessLog(std::ostream& out) : out_(out) {}
  AccessLog(const AccessLog&) = delete;
  AccessLog& operator=(const AccessLog&) = delete;

  void write(const std::string& line);

private:
  std::mutex mutex_;
  std::ostream& out_;
};

}  // namespace perftrack::serve
