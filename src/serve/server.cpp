#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <iostream>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "obs/telemetry.hpp"

namespace perftrack::serve {

// ---------------------------------------------------------------------------
// Shared request loop

namespace {

/// Background idle-study eviction; joined (and woken) on destruction.
class Sweeper {
public:
  Sweeper(TrackingService& service, std::uint64_t interval_ms) {
    if (interval_ms == 0) return;
    thread_ = std::thread([this, &service, interval_ms] {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!stop_) {
        if (wake_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                           [this] { return stop_; }))
          break;
        lock.unlock();
        service.sweep();
        lock.lock();
      }
    });
  }

  ~Sweeper() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    thread_.join();
  }

private:
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread thread_;
};

/// `response` as one NDJSON line, newline included, rendered in place.
std::string response_line(const Response& response) {
  std::string line = render_response(response);
  line += '\n';
  return line;
}

/// Emit the access-log line for a finished request, plus the slow-request
/// span dump when the request crossed the threshold. `begin_ns`/`end_ns`
/// bound the handler window the span replay looks at; rejected requests
/// pass an empty window. Called on the connection's thread, which ran the
/// request, so current_thread_timeline() sees its spans.
void log_request(const ServerOptions& options, const RequestRecord& record,
                 std::uint64_t begin_ns, std::uint64_t end_ns) {
  const bool slow = record.total_ns >= options.slow_ns;
  if (options.access_log == nullptr && !slow) return;
  if (slow) {
    const std::string dump = slow_record_json(record, begin_ns, end_ns);
    if (options.access_log != nullptr) {
      options.access_log->write(dump);
    } else {
      std::cerr << dump << std::endl;
    }
    return;
  }
  options.access_log->write(access_record_json(record));
}

/// Serve one connection: read a line, answer it through `write`, and only
/// then read the next, until EOF or a shutdown request. One request is in
/// flight at a time, so requests run in the order they were sent.
///
/// Every path feeds the live metrics plane: parse, write and end-to-end
/// latency are recorded under the request's method ("invalid" for lines
/// that never parsed). Rejections (overlong or bad lines, draining) count
/// the error without a latency sample for the phases that never ran.
void serve_requests(TrackingService& service, const ServerOptions& options,
                    const std::function<LineRead(std::string&)>& next_line,
                    const std::function<void(const std::string&)>& write) {
  ServeMetrics& metrics = service.metrics();
  // Per-connection memo of the method's metrics handle: protocol clients
  // overwhelmingly repeat one method down a connection (a reader pool
  // floods `regions`), so the common case records latency through a
  // pre-resolved handle with no string hashing.
  std::string memo_method;
  const ServeMetrics::MethodMetrics* memo_slot = nullptr;
  std::string line;
  LineRead status;
  while ((status = next_line(line)) != LineRead::Eof) {
    if (status == LineRead::Line && line.empty()) continue;
    const std::uint64_t t_read = obs::now_ns();

    // Rejection path shared by overlong / bad-JSON / draining lines:
    // answer, count, and access-log without dispatching.
    auto reject = [&](const Request& request, const char* method,
                      ErrorCode code, const std::string& message) {
      metrics.count_request(method);
      metrics.count_error(error_code_name(code));
      write(response_line(make_error(request, code, message)));
      const std::uint64_t t_written = obs::now_ns();
      metrics.record_request_ns(method, t_written - t_read);
      RequestRecord record;
      record.id = request.id;
      record.method = method;
      record.study = request.study;
      record.outcome = std::string(error_code_name(code));
      record.total_ns = t_written - t_read;
      log_request(options, record, t_written, t_written);
    };

    if (status == LineRead::Overlong) {
      reject(Request{}, "invalid", ErrorCode::BadRequest,
             "request line exceeds " +
                 std::to_string(options.max_line_bytes) +
                 " bytes (--max-line-bytes); oversized input discarded");
      continue;
    }

    Request request;
    try {
      request = parse_request(line);
    } catch (const ServeError& error) {
      reject(Request{}, "invalid", error.code(), error.what());
      continue;
    }
    const std::uint64_t t_parsed = obs::now_ns();
    metrics.record_phase_ns(ServeMetrics::Phase::Parse, t_parsed - t_read);

    if (service.shutdown_requested()) {
      reject(request, request.method.c_str(), ErrorCode::ShuttingDown,
             "server is draining");
      continue;
    }

    if (request.method != memo_method) {
      memo_method = request.method;
      memo_slot = metrics.method_metrics(memo_method);
    }

    const Response response = service.handle(request);
    const std::uint64_t t_handled = obs::now_ns();
    const std::uint64_t lock_ns = ServeMetrics::context_lock_wait_ns();
    write(response_line(response));
    const std::uint64_t t_written = obs::now_ns();
    metrics.record_phase_ns(ServeMetrics::Phase::Write, t_written - t_handled);
    metrics.record_request_ns(memo_slot, t_written - t_read);

    if (options.access_log != nullptr ||
        t_written - t_read >= options.slow_ns) {
      RequestRecord record;
      record.id = request.id;
      record.method = request.method;
      record.study = request.study;
      record.outcome = response.ok
                           ? "ok"
                           : std::string(error_code_name(response.code));
      record.parse_ns = t_parsed - t_read;
      record.lock_ns = lock_ns;
      record.handler_ns = t_handled - t_parsed;
      record.write_ns = t_written - t_handled;
      record.total_ns = t_written - t_read;
      log_request(options, record, t_parsed, t_written);
    }
    // The shutdown response is written; stop reading so the caller can
    // drain. Other connections notice via shutdown_requested().
    if (request.method == "shutdown") break;
  }
}

}  // namespace

int serve_stream(TrackingService& service, std::istream& in,
                 std::ostream& out, const ServerOptions& options) {
  Sweeper sweeper(service, options.sweep_interval_ms);
  // The istream transport necessarily buffers the line before the cap
  // check (getline owns the read loop); the fd transport below enforces
  // the cap incrementally. Protocol behaviour is identical.
  const std::size_t cap = options.max_line_bytes;
  serve_requests(
      service, options,
      [&in, cap](std::string& line) {
        if (!std::getline(in, line)) return LineRead::Eof;
        if (cap != 0 && line.size() > cap) {
          line.clear();
          return LineRead::Overlong;
        }
        return LineRead::Line;
      },
      [&out](const std::string& line) {
        out << line;
        out.flush();
      });
  return out.good() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// AF_UNIX transport

namespace {

/// Self-pipe for async-signal-safe SIGTERM/SIGINT delivery to poll().
int g_signal_pipe[2] = {-1, -1};

extern "C" void pt_serve_signal_handler(int) {
  char byte = 0;
  // The only async-signal-safe thing to do: poke the pipe.
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

bool write_all(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // peer went away; the reader will see EOF and stop
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// A socket file can be left behind by a crashed daemon (the clean exit
/// path unlinks it). Distinguish the three cases before bind: a live
/// daemon (refuse to steal its name), a stale socket (unlink it with a
/// diagnostic), and a non-socket file (refuse — never delete data).
/// Returns false when `path` must not be replaced.
bool remove_stale_socket(const std::string& path, const sockaddr_un& address) {
  struct stat st{};
  if (::lstat(path.c_str(), &st) != 0) return true;  // nothing there
  if (!S_ISSOCK(st.st_mode)) {
    PT_LOG(Error) << "serve: " << path
                  << " exists and is not a socket; refusing to replace it";
    return false;
  }
  int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (probe >= 0) {
    const bool alive =
        ::connect(probe, reinterpret_cast<const sockaddr*>(&address),
                  sizeof(address)) == 0;
    const int connect_errno = errno;
    ::close(probe);
    if (alive) {
      PT_LOG(Error) << "serve: " << path
                    << " is in use by a live daemon; refusing to unlink it";
      return false;
    }
    PT_LOG(Warn) << "serve: removing stale socket " << path
                 << " (connect probe: " << std::strerror(connect_errno)
                 << " — a previous daemon likely crashed)";
  }
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    PT_LOG(Error) << "serve: cannot unlink stale socket " << path << ": "
                  << std::strerror(errno);
    return false;
  }
  return true;
}

/// The open connections of a socket transport, each served on its own
/// thread, at most `capacity` at a time. A finished thread hands itself to
/// `finished_`, and reap() joins it there, so closed connections leave no
/// threads behind until shutdown.
class Connections {
public:
  explicit Connections(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}
  Connections(const Connections&) = delete;
  Connections& operator=(const Connections&) = delete;
  ~Connections() { close_all(); }

  /// Serve `fd` on a new thread that runs `serve(fd)` and then closes
  /// `fd`. Returns false, and leaves `fd` to the caller, when `capacity`
  /// connections are already open.
  bool try_open(int fd, const std::function<void(int)>& serve) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (open_.size() >= capacity_) {
      ++rejected_;
      return false;
    }
    // The new thread's exit path takes mutex_, so it cannot look for its
    // entry before the emplace below has made it.
    open_.emplace(fd, std::thread([this, fd, serve] {
      try {
        serve(fd);
      } catch (const std::exception& error) {
        PT_LOG(Error) << "serve: connection dropped: " << error.what();
      }
      std::lock_guard<std::mutex> lock(mutex_);
      auto self = open_.find(fd);
      finished_.push_back(std::move(self->second));
      // De-register before close: once closed, the fd number can be
      // reused by a new connection, and close_all() must not shutdown()
      // someone else's socket.
      open_.erase(self);
      ::close(fd);
      closed_.notify_all();
    }));
    ++admitted_;
    return true;
  }

  /// Join the threads of connections that have ended.
  void reap() {
    std::vector<std::thread> done;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done.swap(finished_);
    }
    for (std::thread& thread : done) thread.join();
  }

  /// Stop reading every connection, let each answer the request it is
  /// running, and join every thread.
  void close_all() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Shut the read side down to stop threads blocked in read(); keep
      // the write side so in-flight responses still reach the client.
      for (const auto& [fd, thread] : open_) ::shutdown(fd, SHUT_RD);
      closed_.wait(lock, [this] { return open_.empty(); });
    }
    reap();
  }

  QueueStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return QueueStats{capacity_, open_.size(), admitted_, rejected_};
  }

private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable closed_;
  std::map<int, std::thread> open_;   ///< fd -> the thread serving it
  std::vector<std::thread> finished_;  ///< exited, not yet joined
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
};

/// Answer a connection beyond the cap with one `overloaded` error line,
/// before reading anything from it, and close it.
void refuse(TrackingService& service, int fd, std::size_t capacity) {
  ServeMetrics& metrics = service.metrics();
  if (metrics.enabled())
    metrics.registry().counter("perftrackd_overloaded_total").add();
  metrics.count_error(error_code_name(ErrorCode::Overloaded));
  write_all(fd, response_line(make_error(
                    Request{}, ErrorCode::Overloaded,
                    "connection limit reached (" + std::to_string(capacity) +
                        " open, --queue); retry")));
  ::close(fd);
}

/// Accept loop shared by the AF_UNIX and TCP transports: signal handling,
/// one thread per connection up to the cap, and a full drain before
/// returning. Owns (and closes) `listen_fd`.
int run_socket_server(TrackingService& service, int listen_fd,
                      const ServerOptions& options) {
  if (::pipe(g_signal_pipe) != 0) {
    PT_LOG(Error) << "serve: pipe(): " << std::strerror(errno);
    ::close(listen_fd);
    return 1;
  }
  struct sigaction action{}, old_term{}, old_int{}, old_pipe{};
  action.sa_handler = pt_serve_signal_handler;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGTERM, &action, &old_term);
  ::sigaction(SIGINT, &action, &old_int);
  struct sigaction ignore{};
  ignore.sa_handler = SIG_IGN;
  sigemptyset(&ignore.sa_mask);
  ::sigaction(SIGPIPE, &ignore, &old_pipe);

  const auto serve_connection = [&service, &options](int fd) {
    // Raw fd reads, no stdio buffering to fight with shutdown().
    LineFramer framer(options.max_line_bytes);
    const auto read_fd = [fd](char* into, std::size_t room) -> ssize_t {
      while (true) {
        const ssize_t n = ::read(fd, into, room);
        if (n >= 0 || errno != EINTR) return n;
      }
    };
    serve_requests(
        service, options,
        [&framer, &read_fd](std::string& line) {
          return framer.next(line, read_fd);
        },
        [fd](const std::string& line) { write_all(fd, line); });
  };

  {
    Connections connections(options.queue_capacity);
    service.set_queue_stats([&connections] { return connections.stats(); });
    Sweeper sweeper(service, options.sweep_interval_ms);
    while (true) {
      pollfd fds[2] = {{listen_fd, POLLIN, 0}, {g_signal_pipe[0], POLLIN, 0}};
      int ready = ::poll(fds, 2, 200);
      connections.reap();
      if (service.shutdown_requested()) break;
      if (ready < 0) {
        if (errno == EINTR) continue;
        PT_LOG(Error) << "serve: poll(): " << std::strerror(errno);
        break;
      }
      if (fds[1].revents & POLLIN) {
        PT_LOG(Info) << "serve: signal received, draining";
        break;
      }
      if (!(fds[0].revents & POLLIN)) continue;
      int client = ::accept(listen_fd, nullptr, nullptr);
      if (client < 0) {
        if (errno == EINTR) continue;
        PT_LOG(Warn) << "serve: accept(): " << std::strerror(errno);
        continue;
      }
      if (!connections.try_open(client, serve_connection))
        refuse(service, client, options.queue_capacity);
    }
    connections.close_all();
    service.set_queue_stats(nullptr);
  }

  ::sigaction(SIGTERM, &old_term, nullptr);
  ::sigaction(SIGINT, &old_int, nullptr);
  ::sigaction(SIGPIPE, &old_pipe, nullptr);
  ::close(g_signal_pipe[0]);
  ::close(g_signal_pipe[1]);
  g_signal_pipe[0] = g_signal_pipe[1] = -1;
  ::close(listen_fd);
  PT_LOG(Info) << "perftrackd drained, exiting";
  return 0;
}

}  // namespace

int serve_unix_socket(TrackingService& service, const std::string& path,
                      const ServerOptions& options) {
  sockaddr_un address{};
  if (path.size() >= sizeof(address.sun_path)) {
    PT_LOG(Error) << "serve: socket path too long (" << path.size()
                  << " bytes, limit " << sizeof(address.sun_path) - 1
                  << "): " << path;
    return 1;
  }
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);

  int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    PT_LOG(Error) << "serve: socket(): " << std::strerror(errno);
    return 1;
  }
  if (!remove_stale_socket(path, address)) {
    ::close(listen_fd);
    return 1;
  }
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listen_fd, 64) != 0) {
    PT_LOG(Error) << "serve: cannot listen on " << path << ": "
                  << std::strerror(errno);
    ::close(listen_fd);
    return 1;
  }

  PT_LOG(Info) << "perftrackd listening on " << path;
  const int code = run_socket_server(service, listen_fd, options);
  ::unlink(path.c_str());
  return code;
}

int serve_tcp(TrackingService& service, const std::string& host,
              std::uint16_t port, const ServerOptions& options,
              const std::function<void(std::uint16_t)>& on_listening) {
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    PT_LOG(Error) << "serve: --listen host must be a numeric IPv4 address "
                  << "(got '" << host << "')";
    return 1;
  }

  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    PT_LOG(Error) << "serve: socket(): " << std::strerror(errno);
    return 1;
  }
  int yes = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof yes);
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listen_fd, 64) != 0) {
    PT_LOG(Error) << "serve: cannot listen on " << host << ":" << port
                  << ": " << std::strerror(errno);
    ::close(listen_fd);
    return 1;
  }
  // Port 0 asked the kernel to pick: report what it chose.
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  std::uint16_t actual_port = port;
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0)
    actual_port = ntohs(bound.sin_port);

  PT_LOG(Info) << "perftrackd listening on " << host << ":" << actual_port;
  if (on_listening) on_listening(actual_port);
  return run_socket_server(service, listen_fd, options);
}

}  // namespace perftrack::serve
