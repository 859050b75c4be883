#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace perftrack::serve {
namespace {

using Clock = std::chrono::steady_clock;

/// Milliseconds left until `deadline` (>= 0); throws on expiry. A
/// default-constructed (epoch) deadline means "no deadline" -> -1, which
/// poll() reads as block-forever.
int remaining_ms(Clock::time_point deadline, const char* what) {
  if (deadline == Clock::time_point{}) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  if (left.count() <= 0)
    throw Error(std::string(what) + " timed out (client deadline)");
  return left.count() > 60'000 ? 60'000 : static_cast<int>(left.count());
}

/// Block until `fd` is ready for `events` or the deadline passes.
void wait_ready(int fd, short events, Clock::time_point deadline,
                const char* what) {
  while (true) {
    pollfd pfd{fd, events, 0};
    const int n = ::poll(&pfd, 1, remaining_ms(deadline, what));
    if (n > 0) return;
    if (n < 0 && errno != EINTR)
      throw Error(std::string("poll(): ") + std::strerror(errno));
    // n == 0: poll timed out — loop so remaining_ms() throws the typed
    // deadline error (or keeps waiting when there is no deadline).
  }
}

Clock::time_point attempt_deadline(const RetryPolicy& retry) {
  if (retry.deadline_ms == 0) return Clock::time_point{};
  return Clock::now() + std::chrono::milliseconds(retry.deadline_ms);
}

}  // namespace

ClientResponse parse_client_response(const std::string& line) {
  obs::JsonValue doc;
  try {
    doc = obs::parse_json(line);
  } catch (const ParseError& error) {
    throw Error(std::string("malformed response from daemon: ") +
                error.what());
  }
  if (!doc.is_object()) throw Error("daemon response is not a JSON object");

  ClientResponse response;
  response.ok = doc.has("ok") && doc.at("ok").boolean;
  if (response.ok) {
    if (doc.has("result")) response.result = doc.at("result");
  } else if (doc.has("error")) {
    const obs::JsonValue& error = doc.at("error");
    if (error.has("code")) response.error_code = error.at("code").string;
    if (error.has("message"))
      response.error_message = error.at("message").string;
  }
  return response;
}

NdjsonClient::NdjsonClient(const std::string& path, RetryPolicy retry)
    : path_(path), retry_(retry), rng_(std::random_device{}()) {
  if (retry_.attempts < 1) retry_.attempts = 1;
  for (int attempt = 1;; ++attempt) {
    try {
      connect_now();
      return;
    } catch (const Error&) {
      if (attempt >= retry_.attempts) throw;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(backoff_delay_ms(attempt)));
  }
}

NdjsonClient::~NdjsonClient() { disconnect(); }

void NdjsonClient::connect_now() {
  disconnect();
  // Endpoint grammar: "tcp://HOST:PORT" connects over TCP; anything else
  // is an AF_UNIX socket path (the historical form).
  sockaddr_un unix_address{};
  sockaddr_in tcp_address{};
  sockaddr* address = nullptr;
  socklen_t address_len = 0;
  int family = AF_UNIX;
  if (path_.rfind("tcp://", 0) == 0) {
    const std::string endpoint = path_.substr(6);
    const std::size_t colon = endpoint.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == endpoint.size())
      throw Error("tcp endpoint must be tcp://HOST:PORT, got " + path_);
    const std::string host = endpoint.substr(0, colon);
    int port = 0;
    try {
      port = std::stoi(endpoint.substr(colon + 1));
    } catch (const std::exception&) {
      port = -1;
    }
    if (port < 1 || port > 65535)
      throw Error("tcp endpoint port out of range in " + path_);
    tcp_address.sin_family = AF_INET;
    tcp_address.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &tcp_address.sin_addr) != 1)
      throw Error("tcp endpoint host must be a numeric IPv4 address, got " +
                  host);
    family = AF_INET;
    address = reinterpret_cast<sockaddr*>(&tcp_address);
    address_len = sizeof(tcp_address);
  } else {
    if (path_.size() >= sizeof(unix_address.sun_path))
      throw Error("socket path too long: " + path_);
    unix_address.sun_family = AF_UNIX;
    std::memcpy(unix_address.sun_path, path_.c_str(), path_.size() + 1);
    address = reinterpret_cast<sockaddr*>(&unix_address);
    address_len = sizeof(unix_address);
  }

  const auto deadline = attempt_deadline(retry_);
  fd_ = ::socket(family, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd_ < 0)
    throw Error(std::string("socket(): ") + std::strerror(errno));
  try {
    if (::connect(fd_, address, address_len) != 0) {
      if (errno != EINPROGRESS && errno != EAGAIN)
        throw Error("cannot connect to " + path_ + ": " +
                    std::strerror(errno) + " (is perftrackd running?)");
      wait_ready(fd_, POLLOUT, deadline, "connect");
      int soerr = 0;
      socklen_t len = sizeof soerr;
      if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0)
        soerr = errno;
      if (soerr != 0)
        throw Error("cannot connect to " + path_ + ": " +
                    std::strerror(soerr) + " (is perftrackd running?)");
    }
  } catch (const Error&) {
    disconnect();
    throw;
  }
}

void NdjsonClient::disconnect() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  framer_.clear();  // a partial response from a dead connection is garbage
}

std::uint64_t NdjsonClient::backoff_delay_ms(int attempt) {
  std::uint64_t delay = retry_.backoff_ms;
  for (int i = 1; i < attempt && delay < retry_.backoff_max_ms; ++i)
    delay *= 2;
  if (delay > retry_.backoff_max_ms) delay = retry_.backoff_max_ms;
  if (delay == 0) return 0;
  std::uniform_int_distribution<std::uint64_t> jitter(0, delay / 2);
  return delay + jitter(rng_);
}

std::string NdjsonClient::attempt_roundtrip(std::string_view line) {
  const auto deadline = attempt_deadline(retry_);

  // The line and its '\n' go out through one gather write, so the request
  // is never copied just to terminate it.
  static const char kNewline = '\n';
  const std::size_t total = line.size() + 1;
  std::size_t done = 0;
  while (done < total) {
    wait_ready(fd_, POLLOUT, deadline, "send");
    iovec parts[2];
    msghdr message{};
    message.msg_iov = parts;
    if (done < line.size())
      parts[message.msg_iovlen++] = {const_cast<char*>(line.data() + done),
                                     line.size() - done};
    parts[message.msg_iovlen++] = {const_cast<char*>(&kNewline), 1};
    ssize_t n = ::sendmsg(fd_, &message, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
        continue;
      throw Error(std::string("send(): ") + std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }

  std::string response;
  framer_.next(response, [&](char* into, std::size_t room) -> ssize_t {
    while (true) {
      wait_ready(fd_, POLLIN, deadline, "recv");
      ssize_t n = ::recv(fd_, into, room, 0);
      if (n > 0) return n;
      if (n == 0) throw Error("daemon closed the connection mid-response");
      if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK)
        throw Error(std::string("recv(): ") + std::strerror(errno));
    }
  });
  return response;
}

std::string NdjsonClient::roundtrip(const std::string& request_line) {
  for (int attempt = 1;; ++attempt) {
    try {
      if (fd_ < 0) connect_now();
      return attempt_roundtrip(request_line);
    } catch (const Error&) {
      // The daemon may have applied the request before the failure; the
      // policy doc makes retrying the caller's contract (idempotent
      // requests only). Reconnect so the next attempt starts clean.
      disconnect();
      if (attempt >= retry_.attempts) throw;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(backoff_delay_ms(attempt)));
  }
}

ClientResponse NdjsonClient::call(const std::string& method,
                                  const std::string& study,
                                  const std::string& params_json) {
  obs::JsonWriter json;
  json.begin_object();
  json.key("method").value(method);
  if (!study.empty()) json.key("study").value(study);
  json.end_object();
  std::string line = json.str();
  if (!params_json.empty()) {
    // Splice the caller-built params object in before the closing brace;
    // JsonWriter has no raw-value hook and the object is already valid.
    line.insert(line.size() - 1, ",\"params\":" + params_json);
  }
  return parse_client_response(roundtrip(line));
}

}  // namespace perftrack::serve
