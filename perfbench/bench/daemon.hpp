#pragma once
// The real perftrackd, run as a child process on a private Unix socket.
//
// The daemon gets a socket and a state dir inside the benchmark's own work
// directory and an environment without PERFTRACK_CACHE, so no frame cache
// is used. The benchmark waits for `ping` before it times anything, stops
// the daemon with `shutdown` and checks that it exits 0. A daemon still
// running when its Daemon object dies (an exception unwinding) is killed
// and reaped; the kernel also sends it SIGKILL if the benchmark dies.

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/client.hpp"

namespace perfbench {

/// What /proc/<pid> says about a process.
struct ProcSample {
  double cpu_ms = 0;          ///< utime + stime
  std::uint64_t threads = 0;  ///< Threads
  double peak_rss_mb = 0;     ///< VmHWM
};

/// Read /proc/<pid>/stat and /proc/<pid>/status (pid 0 = this process).
ProcSample sample_process(pid_t pid);

class Daemon {
public:
  /// Start `exe` with `args`; stdout and stderr go to `log_path`.
  Daemon(const std::string& exe, std::vector<std::string> args,
         const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  /// The exact command line, space-separated.
  std::string command_line() const;

  /// Connect to `socket` and wait until the daemon answers ping; throws
  /// perftrack::Error when it does not within `timeout_ms`.
  std::unique_ptr<perftrack::serve::NdjsonClient> connect(
      const std::string& socket, std::uint64_t timeout_ms);

  /// Send `shutdown` on `client` and wait for the process to end. True when
  /// it exited with status 0 within `timeout_ms`; otherwise it is killed.
  bool shutdown(perftrack::serve::NdjsonClient& client,
                std::uint64_t timeout_ms);

private:
  bool wait_exit(std::uint64_t timeout_ms);

  std::vector<std::string> argv_;
  pid_t pid_ = -1;
  int status_ = -1;
};

}  // namespace perfbench
