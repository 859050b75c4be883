#pragma once
// Dispatcher: what a transport needs from a request sink.
//
// The server layer (serve/server.hpp) owns the sockets, the connection
// threads and the open-connection cap; it does not care whether requests
// land in a local TrackingService or are proxied to worker daemons by the
// shard front (serve/shard.hpp). This interface is that seam: one
// dispatch() call maps one parsed request to one response, thread-safely
// (each connection calls it from its own thread), and the few
// service-level hooks the transports use — drain signalling, the live
// metrics plane, connection-stats injection, the idle sweeper — travel
// with it. TrackingService and ShardFront both implement it, so every
// transport (stdio, AF_UNIX, TCP) serves either unchanged.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "serve/protocol.hpp"

namespace perftrack::serve {

class ServeMetrics;

/// Open-connection counters of a socket transport, injected by the server
/// layer so the `stats` endpoint (its `queue` block) can report
/// backpressure without the dispatcher owning the connections.
struct QueueStats {
  std::size_t capacity = 0;    ///< open-connection cap (--queue)
  std::size_t in_flight = 0;   ///< open connections
  std::uint64_t admitted = 0;  ///< connections accepted
  std::uint64_t rejected = 0;  ///< connections refused as `overloaded`
};

class Dispatcher {
public:
  virtual ~Dispatcher() = default;

  /// Handle one request; never throws — every failure becomes a typed
  /// error response. Thread-safe. `raw_line` is the NDJSON line the
  /// request was parsed from ("" for direct callers that built the
  /// Request by hand); proxying dispatchers forward it verbatim.
  virtual Response dispatch(const Request& request,
                            const std::string& raw_line) = 0;

  /// Set by a "shutdown" request; the server drains and exits when it
  /// sees this.
  virtual bool shutdown_requested() const = 0;

  /// The live metrics plane the transports record into.
  virtual ServeMetrics& metrics() = 0;

  /// Installed by the socket transports so `stats` can report
  /// open-connection backpressure.
  virtual void set_queue_stats(std::function<QueueStats()> fn) = 0;

  /// Run the idle-eviction policy now. Returns sessions evicted.
  virtual std::size_t sweep() = 0;
};

}  // namespace perftrack::serve
