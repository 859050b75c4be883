#pragma once
// Blocking NDJSON client for the perftrackd protocol.
//
// The thin counterpart of serve_unix_socket(): connect to the daemon's
// socket, write one request line, read one response line. `perftrack
// stat` is built on it; tests use it to talk to a daemon end to end.
// One request in flight at a time — callers needing pipelining should
// hold several clients.
//
// Resilience: a RetryPolicy bounds each attempt with a deadline (poll()
// around every send/recv) and retries transport failures — connection
// refused, daemon restart, timeout — with exponential backoff plus
// jitter, reconnecting between attempts. Retrying a request that may
// have been applied is only safe when the request is idempotent: reads
// always are, and appends are made so by the `seq` parameter (the
// service applies each seq exactly once — docs/SERVING.md, durability).

#include <cstdint>
#include <random>
#include <string>
#include <string_view>

#include "serve/protocol.hpp"

namespace perftrack::serve {

/// One parsed response line, from the client's side of the wire.
struct ClientResponse {
  bool ok = false;
  std::string error_code;     ///< wire code when !ok
  std::string error_message;  ///< human message when !ok
  obs::JsonValue result;      ///< result object when ok (Null otherwise)
};

/// Parse one NDJSON response line. Throws Error on malformed JSON (a
/// daemon bug or a non-daemon peer).
ClientResponse parse_client_response(const std::string& line);

/// Per-roundtrip resilience policy. The default (one attempt, no
/// deadline) reproduces the historical block-forever behaviour.
struct RetryPolicy {
  /// Total tries per roundtrip (and per initial connect); >= 1.
  int attempts = 1;

  /// Per-attempt deadline in milliseconds for connect/send/recv
  /// (0 = block forever).
  std::uint64_t deadline_ms = 0;

  /// First retry delay; doubles per retry up to backoff_max_ms. A random
  /// jitter of up to half the delay is added so a herd of retrying
  /// clients does not re-arrive in lockstep.
  std::uint64_t backoff_ms = 10;
  std::uint64_t backoff_max_ms = 1000;
};

class NdjsonClient {
public:
  /// Connect to `path`, retrying per `retry` (so a client racing a
  /// daemon's startup can wait for the endpoint to appear). `path` is an
  /// AF_UNIX socket path, or "tcp://HOST:PORT" (numeric IPv4) to reach a
  /// daemon started with --listen. Throws Error when every attempt fails.
  explicit NdjsonClient(const std::string& path, RetryPolicy retry = {});
  ~NdjsonClient();

  NdjsonClient(const NdjsonClient&) = delete;
  NdjsonClient& operator=(const NdjsonClient&) = delete;

  /// Send one request line (newline appended) and block for the response
  /// line, retrying transport failures per the policy (reconnecting
  /// between attempts). Throws Error when every attempt fails.
  std::string roundtrip(const std::string& request_line);

  /// Convenience: call `method` (optionally against `study`, optionally
  /// with `params_json`, a complete JSON object) and return the parsed
  /// response. Throws Error on transport failure; protocol errors come
  /// back as ok=false, not exceptions.
  ClientResponse call(const std::string& method,
                      const std::string& study = "",
                      const std::string& params_json = "");

private:
  void connect_now();   ///< one bounded connect attempt; throws Error
  void disconnect();
  std::string attempt_roundtrip(std::string_view line);
  std::uint64_t backoff_delay_ms(int attempt);

  std::string path_;
  RetryPolicy retry_;
  int fd_ = -1;
  LineFramer framer_;  ///< bytes past the last response line
  std::minstd_rand rng_;
};

}  // namespace perftrack::serve
