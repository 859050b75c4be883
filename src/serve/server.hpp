#pragma once
// The daemon engine around TrackingService: transports, per-connection
// request order, the open-connection cap, and graceful drain.
//
// Request flow, on each connection's own thread:
//
//   read line -> parse -> handle -> write response -> read next line
//
// * One request in flight per connection: the next line is read only
//   after the previous response is written, so a pipelined
//   `append_experiment` always runs after the `open_study` before it and
//   responses come back in request order by construction. Parallelism
//   comes from separate connections.
// * The socket transports cap open connections at
//   ServerOptions::queue_capacity (--queue). Connection N+1 is answered
//   with one typed `overloaded` error line and closed before any of its
//   requests is read — backpressure, not buffering. Since each connection
//   has at most one request in flight, the cap also bounds requests in
//   flight. A connection's thread is joined when the connection ends.
// * Graceful drain: EOF, a `shutdown` request, SIGTERM or SIGINT stop
//   reading; every request already read still completes and is answered
//   before the serve loop returns. Requests that arrive during the drain
//   get a typed `shutting-down` error.
//
// Transports: serve_stream() speaks NDJSON over any istream/ostream pair
// (perftrackd --stdio, and the unit tests) as a single connection on the
// calling thread; serve_unix_socket() listens on a local AF_UNIX stream
// socket and serve_tcp() on a TCP host:port (--listen), each with one
// thread per connection. Every transport serves one TrackingService.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "serve/access_log.hpp"
#include "serve/service.hpp"

namespace perftrack::serve {

struct ServerOptions {
  /// Max open connections on the socket transports; a further connection
  /// is sent one `overloaded` error line and closed. Each connection has
  /// at most one request in flight, so this also caps requests in flight.
  /// serve_stream() is a single connection and ignores it.
  std::size_t queue_capacity = 64;

  /// Period of the idle-study sweeper thread (0 = no sweeper; eviction
  /// then only happens via the `sweep` method).
  std::uint64_t sweep_interval_ms = 0;

  /// Structured NDJSON access log: one line per request with the phase
  /// breakdown (see access_log.hpp). Not owned; null = no access log.
  AccessLog* access_log = nullptr;

  /// Slow-request threshold in nanoseconds: a request slower than this
  /// end-to-end also logs its span tree (to the access log, or stderr
  /// when there is none). 0 dumps every request; the ~0 default disables
  /// the capture.
  std::uint64_t slow_ns = ~0ull;

  /// Reject NDJSON request lines longer than this with a typed
  /// `bad-request` error instead of buffering them without bound (the
  /// remainder of the oversized line is discarded, and the connection
  /// keeps serving). 0 = unlimited. Inline traces ride inside request
  /// lines, so the default leaves real workloads ample headroom.
  std::size_t max_line_bytes = 8u << 20;
};

/// Serve NDJSON requests from `in` to `out`, one at a time on the calling
/// thread, until EOF or a `shutdown` request. Returns the process exit
/// code (0, or 1 on an unrecoverable transport error).
int serve_stream(TrackingService& service, std::istream& in,
                 std::ostream& out, const ServerOptions& options);

/// Listen on an AF_UNIX stream socket at `path` until SIGTERM/SIGINT or a
/// `shutdown` request, serving each connection on its own thread, then
/// drain every connection. A socket file left by a crashed daemon is
/// probed (connect) and unlinked when dead; a live daemon's socket, or a
/// non-socket file, is never removed (returns 1). Returns the process exit
/// code.
int serve_unix_socket(TrackingService& service, const std::string& path,
                      const ServerOptions& options);

/// Listen on TCP `host`:`port` (--listen). Same protocol, framing, and
/// line-length bounds as the AF_UNIX transport; `host` must be a numeric
/// IPv4 address ("127.0.0.1", "0.0.0.0"). Port 0 binds an ephemeral port;
/// `on_listening`, when set, receives the actually bound port before the
/// first accept (tests use it to connect). Returns the process exit code.
int serve_tcp(TrackingService& service, const std::string& host,
              std::uint16_t port, const ServerOptions& options,
              const std::function<void(std::uint16_t)>& on_listening = {});

}  // namespace perftrack::serve
