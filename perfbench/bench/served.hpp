#pragma once
// What the two served workloads share: request lines rendered during
// set-up, a perftrackd instance in the work directory, and the daemon-side
// numbers read through the protocol and /proc around a timed phase.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/daemon.hpp"
#include "bench/workloads.hpp"
#include "obs/json.hpp"
#include "serve/client.hpp"

namespace perfbench {

/// One request line, and the start of the answer that means it succeeded.
/// The timed path checks only that prefix on the raw line, so the
/// benchmark does not time its own JSON work.
struct Request {
  std::string line;
  std::string ok_prefix;  ///< {"id":N,"ok":true,
  bool ok(const std::string& response) const {
    return response.compare(0, ok_prefix.size(), ok_prefix) == 0;
  }
};

/// The read shapes of the dashboard mix.
enum ReadShape : std::size_t {
  kRegions,
  kTrendsIpc,
  kTrendsInstructions,
  kCoverage,
  kStats,
  kReport,
  kShapeCount
};

/// Span name of a read shape's method ("serve.regions", ...).
const char* shape_span(std::size_t shape);

struct StudyRequests {
  Request open;
  Request close;
  std::vector<Request> appends;  ///< inline trace, seq 1..N
  std::array<Request, kShapeCount> reads;
};

/// Render every study's requests (needs the corpus texts). `open_study`
/// carries the study's own eps, min_pts and min_cluster_frac.
std::vector<StudyRequests> render_requests(const Corpus& corpus);

/// A perftrackd on `dir`/d.sock with its state in `state_dir`.
struct Server {
  std::string dir;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<perftrack::serve::NdjsonClient> control;
  double start_ms = 0;  ///< spawn until ping answered

  std::string socket() const { return dir + "/d.sock"; }
  std::string profile_path() const { return dir + "/profile.json"; }
};

/// `perftrackd --socket S --state-dir D --no-cache [--profile FILE]`.
Server start_server(const Options& options, const std::string& dir,
                    const std::string& state_dir, bool profile);

/// Shut the daemon down; false unless it exited 0.
bool stop_server(Server& server);

/// Another connection to a daemon that already answers.
std::unique_ptr<perftrack::serve::NdjsonClient> open_client(
    const Server& server);

/// The daemon's cumulative counters at one moment.
struct DaemonSnapshot {
  perftrack::obs::JsonValue histograms;  ///< metrics: histograms object
  perftrack::obs::JsonValue render_cache;  ///< stats: render_cache object
  ProcSample proc;
};

DaemonSnapshot snapshot(Server& server);

/// Daemon-side layer metrics of the interval between two snapshots:
/// phase and handler means, CPU per op, render-cache hit ratio, entries,
/// threads. `ops` is the workload's op count in the interval.
void report_daemon_layers(Results& results, const DaemonSnapshot& before,
                          const DaemonSnapshot& after, double ops);

/// The daemon's tracking-side layer metrics from its --profile report, per
/// op: tracking.retrack_ms, tracking.render_ms (regions/trends rendering)
/// and the program layers of report_program_layers().
void report_daemon_tracking(Results& results, const ProgramProfile& profile,
                            double ops);

/// Parse a response line and return result[`field`] as a string, or ""
/// when the line is not an ok answer carrying it.
std::string result_field(const std::string& line, const std::string& field);

/// Total size of the files under `dir` (the daemon's journals).
std::uint64_t directory_bytes(const std::string& dir);

}  // namespace perfbench
