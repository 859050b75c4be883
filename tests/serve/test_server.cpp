// Server engine: per-connection request order, the open-connection cap,
// the stream transport's drain semantics, the unix-socket transport end to
// end, and NDJSON line framing on both the server and the client side.

#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "serve/client.hpp"
#include "serve/service.hpp"
#include "testing/test_traces.hpp"
#include "trace/trace_io.hpp"
#include "tracking/report.hpp"
#include "tracking/session.hpp"

namespace perftrack::serve {
namespace {

namespace fs = std::filesystem;

using perftrack::testing::MiniPhase;
using perftrack::testing::MiniTraceSpec;
using perftrack::testing::make_mini_trace;

std::string trace_text(const std::string& label, std::uint64_t seed,
                       std::uint32_t tasks = 4, int iterations = 6) {
  MiniTraceSpec spec;
  spec.label = label;
  spec.tasks = tasks;
  spec.iterations = iterations;
  spec.seed = seed;
  spec.noise = 0.02;
  spec.phases = {MiniPhase{8e6, 1.0, {"p1", "x.c", 1}},
                 MiniPhase{1e6, 2.0, {"p2", "x.c", 2}}};
  std::ostringstream out;
  trace::write_trace(out, *make_mini_trace(spec));
  return out.str();
}

std::string append_trace_line(int id, const std::string& study,
                              const std::string& label,
                              const std::string& trace) {
  obs::JsonWriter json;
  json.begin_object();
  json.key("id").value(static_cast<std::uint64_t>(id));
  json.key("method").value("append_experiment");
  json.key("study").value(study);
  json.key("params").begin_object();
  json.key("trace").value(trace);
  json.key("label").value(label);
  json.end_object();
  json.end_object();
  return json.str();
}

std::string append_line(int id, const std::string& study,
                        const std::string& label, std::uint64_t seed) {
  return append_trace_line(id, study, label, trace_text(label, seed));
}

std::vector<obs::JsonValue> parse_lines(const std::string& text) {
  std::vector<obs::JsonValue> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) out.push_back(obs::parse_json(line));
  return out;
}

TEST(ServeStreamTest, AnswersEveryLineInOrderAndExitsZeroOnEof) {
  TrackingService service;
  std::string input;
  input += R"({"id":1,"method":"ping"})" "\n";
  input += "\n";  // blank lines are skipped, not answered
  input += R"({"id":2,"method":"list_studies"})" "\n";
  input += "not json\n";
  input += R"({"id":4,"method":"ping"})" "\n";
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_EQ(serve_stream(service, in, out, ServerOptions{}), 0);

  std::vector<obs::JsonValue> responses = parse_lines(out.str());
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_DOUBLE_EQ(responses[0].at("id").number, 1.0);
  EXPECT_TRUE(responses[0].at("ok").boolean);
  EXPECT_DOUBLE_EQ(responses[1].at("id").number, 2.0);
  EXPECT_FALSE(responses[2].at("ok").boolean);
  EXPECT_EQ(responses[2].at("error").at("code").string, "bad-request");
  EXPECT_DOUBLE_EQ(responses[3].at("id").number, 4.0);
}

TEST(ServeStreamTest, FullSessionAppendTrackRead) {
  TrackingService service;
  std::string input;
  input += R"({"id":1,"method":"open_study","study":"s"})" "\n";
  input += append_line(2, "s", "A", 1) + "\n";
  input += append_line(3, "s", "B", 2) + "\n";
  input += R"({"id":4,"method":"retrack","study":"s"})" "\n";
  input += R"({"id":5,"method":"regions","study":"s"})" "\n";
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_EQ(serve_stream(service, in, out, ServerOptions{}), 0);

  std::vector<obs::JsonValue> responses = parse_lines(out.str());
  ASSERT_EQ(responses.size(), 5u);
  for (const obs::JsonValue& r : responses)
    EXPECT_TRUE(r.at("ok").boolean);
  EXPECT_EQ(static_cast<int>(
                responses[3].at("result").at("experiments").number), 2);
  EXPECT_FALSE(responses[4].at("result").at("text").string.empty());
}

TEST(ServeStreamTest, ShutdownStopsReadingAndDrains) {
  TrackingService service;
  std::string input;
  input += R"({"id":1,"method":"ping"})" "\n";
  input += R"({"id":2,"method":"shutdown"})" "\n";
  input += R"({"id":3,"method":"ping"})" "\n";  // never read
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_EQ(serve_stream(service, in, out, ServerOptions{}), 0);

  std::vector<obs::JsonValue> responses = parse_lines(out.str());
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_TRUE(responses[1].at("result").at("draining").boolean);
  EXPECT_TRUE(service.shutdown_requested());
  // The line after shutdown was left unread in the stream.
  std::string leftover;
  std::getline(in, leftover);
  EXPECT_NE(leftover.find("\"id\":3"), std::string::npos);
}

TEST(ServeStreamTest, RequestsAfterShutdownOnOtherConnectionsAreRefused) {
  TrackingService service;
  {
    std::istringstream in(R"({"id":1,"method":"shutdown"})" "\n");
    std::ostringstream out;
    serve_stream(service, in, out, ServerOptions{});
  }
  // A second stream against the same (draining) service refuses work.
  std::istringstream in(R"({"id":1,"method":"ping"})" "\n");
  std::ostringstream out;
  serve_stream(service, in, out, ServerOptions{});
  std::vector<obs::JsonValue> responses = parse_lines(out.str());
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].at("ok").boolean);
  EXPECT_EQ(responses[0].at("error").at("code").string, "shutting-down");
}

TEST(ServeStreamTest, OverlongLineIsRejectedAndServingContinues) {
  TrackingService service;
  std::string input;
  input += R"({"id":1,"method":"ping"})" "\n";
  input += R"({"id":2,"method":"ping","pad":")" + std::string(600, 'x') +
           "\"}\n";
  input += R"({"id":3,"method":"ping"})" "\n";
  std::istringstream in(input);
  std::ostringstream out;
  ServerOptions options;
  options.max_line_bytes = 256;
  EXPECT_EQ(serve_stream(service, in, out, options), 0);

  std::vector<obs::JsonValue> responses = parse_lines(out.str());
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].at("ok").boolean);
  EXPECT_FALSE(responses[1].at("ok").boolean);
  EXPECT_EQ(responses[1].at("error").at("code").string, "bad-request");
  EXPECT_NE(responses[1].at("error").at("message").string.find("256"),
            std::string::npos);
  EXPECT_TRUE(responses[2].at("ok").boolean)
      << "the connection keeps serving after an oversized line";
}

// ---------------------------------------------------------------------------
// AF_UNIX transport

/// Minimal blocking NDJSON client for the socket tests.
class UnixClient {
public:
  explicit UnixClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
    // The server may not have bound yet; retry briefly.
    for (int attempt = 0; attempt < 100; ++attempt) {
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                    sizeof(address)) == 0)
        return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "cannot connect to " << path;
    ::close(fd_);
    fd_ = -1;
  }

  ~UnixClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send(const std::string& line) { send_raw(line + "\n"); }

  /// Write `bytes` as they are, with no newline added.
  void send_raw(const std::string& bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n =
          ::write(fd_, bytes.data() + done, bytes.size() - done);
      ASSERT_GT(n, 0) << std::strerror(errno);
      done += static_cast<std::size_t>(n);
    }
  }

  /// Signal end of input: the server sees EOF after the bytes sent.
  void finish_sending() { ::shutdown(fd_, SHUT_WR); }

  /// The next response line, or nullopt once the server closed the
  /// connection.
  std::optional<std::string> recv_line() {
    while (true) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  obs::JsonValue recv() { return obs::parse_json(recv_line().value_or("")); }

private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes read past the last returned line
};

TEST(ServeUnixSocketTest, ServesConcurrentConnectionsAndDrainsOnShutdown) {
  const std::string path =
      (fs::path(::testing::TempDir()) / "pt_serve_test.sock").string();
  TrackingService service;
  std::thread server([&] {
    EXPECT_EQ(serve_unix_socket(service, path, ServerOptions{}), 0);
  });

  {
    UnixClient alice(path);
    UnixClient bob(path);
    alice.send(R"({"id":1,"method":"open_study","study":"a"})");
    EXPECT_TRUE(alice.recv().at("ok").boolean);
    bob.send(R"({"id":1,"method":"open_study","study":"b"})");
    EXPECT_TRUE(bob.recv().at("ok").boolean);
    alice.send(append_line(2, "a", "A", 1));
    alice.send(append_line(3, "a", "B", 2));
    EXPECT_TRUE(alice.recv().at("ok").boolean);
    EXPECT_TRUE(alice.recv().at("ok").boolean);
    alice.send(R"({"id":4,"method":"regions","study":"a"})");
    obs::JsonValue regions = alice.recv();
    EXPECT_TRUE(regions.at("ok").boolean);
    EXPECT_FALSE(regions.at("result").at("text").string.empty());

    bob.send(R"({"id":2,"method":"list_studies"})");
    EXPECT_EQ(bob.recv().at("result").at("studies").array.size(), 2u);

    bob.send(R"({"id":3,"method":"shutdown"})");
    EXPECT_TRUE(bob.recv().at("result").at("draining").boolean);
  }
  server.join();
  EXPECT_FALSE(fs::exists(path)) << "socket file removed on clean exit";
}

TEST(ServeUnixSocketTest, PipelinedRoundsRunInRequestOrderPerConnection) {
  // Each connection sends 1000 rounds of open_study -> append_experiment
  // x2 -> regions without waiting for answers, while a reader thread on
  // the same connection collects them (both sides would otherwise block
  // on full socket buffers). A round only succeeds when its requests run
  // in the order they were sent.
  const std::string path =
      (fs::path(::testing::TempDir()) / "pt_serve_order.sock").string();
  TrackingService service;
  std::thread server([&] {
    EXPECT_EQ(serve_unix_socket(service, path, ServerOptions{}), 0);
  });

  constexpr int kConnections = 8;
  constexpr int kRounds = 1000;
  constexpr int kPerRound = 4;
  // The smallest traces that still track: all 8000 studies stay resident
  // until the server exits.
  const std::string trace_a = trace_text("A", 1, 2, 3);
  const std::string trace_b = trace_text("B", 2, 2, 3);
  auto run_connection = [&](int connection) {
    UnixClient client(path);
    int answered = 0;
    int failed = 0;
    int out_of_order = 0;
    std::string first_failure;
    std::thread reader([&] {
      for (; answered < kRounds * kPerRound; ++answered) {
        const std::optional<std::string> line = client.recv_line();
        if (!line) break;
        const obs::JsonValue response = obs::parse_json(*line);
        if (response.at("id").number != static_cast<double>(answered))
          ++out_of_order;
        if (!response.at("ok").boolean && failed++ == 0) first_failure = *line;
      }
    });
    for (int round = 0; round < kRounds; ++round) {
      const std::string study =
          "c" + std::to_string(connection) + "_s" + std::to_string(round);
      const int id = round * kPerRound;
      client.send(R"({"id":)" + std::to_string(id) +
                  R"(,"method":"open_study","study":")" + study + "\"}");
      client.send(append_trace_line(id + 1, study, "A", trace_a));
      client.send(append_trace_line(id + 2, study, "B", trace_b));
      client.send(R"({"id":)" + std::to_string(id + 3) +
                  R"(,"method":"regions","study":")" + study + "\"}");
    }
    reader.join();
    EXPECT_EQ(answered, kRounds * kPerRound) << "connection " << connection;
    EXPECT_EQ(out_of_order, 0) << "connection " << connection;
    EXPECT_EQ(failed, 0) << "connection " << connection
                         << ", first failure: " << first_failure;
  };
  std::vector<std::thread> connections;
  for (int c = 0; c < kConnections; ++c)
    connections.emplace_back(run_connection, c);
  for (std::thread& connection : connections) connection.join();

  {
    UnixClient admin(path);
    admin.send(R"({"id":1,"method":"shutdown"})");
    EXPECT_TRUE(admin.recv().at("ok").boolean);
  }
  server.join();
}

TEST(ServeUnixSocketTest, ConnectionsBeyondTheCapAreRefusedAsOverloaded) {
  const std::string path =
      (fs::path(::testing::TempDir()) / "pt_serve_conn_cap.sock").string();
  TrackingService service;
  ServerOptions options;
  options.queue_capacity = 2;
  std::thread server([&] {
    EXPECT_EQ(serve_unix_socket(service, path, options), 0);
  });
  auto queue_of = [](UnixClient& client) {
    client.send(R"({"id":0,"method":"stats"})");
    return client.recv().at("result").at("queue");
  };
  auto in_flight = [](const obs::JsonValue& queue) {
    return static_cast<int>(queue.at("in_flight").number);
  };

  auto first = std::make_unique<UnixClient>(path);
  UnixClient second(path);
  // An answered ping proves each connection is open before the third.
  first->send(R"({"id":1,"method":"ping"})");
  EXPECT_TRUE(first->recv().at("ok").boolean);
  second.send(R"({"id":1,"method":"ping"})");
  EXPECT_TRUE(second.recv().at("ok").boolean);
  {
    UnixClient third(path);
    const obs::JsonValue refused = third.recv();
    EXPECT_FALSE(refused.at("ok").boolean);
    EXPECT_EQ(refused.at("error").at("code").string, "overloaded");
    EXPECT_FALSE(third.recv_line().has_value())
        << "a refused connection is closed after its one error line";
  }
  obs::JsonValue queue = queue_of(second);
  EXPECT_EQ(static_cast<int>(queue.at("capacity").number), 2);
  EXPECT_EQ(static_cast<int>(queue.at("rejected").number), 1);
  EXPECT_EQ(static_cast<int>(queue.at("admitted").number), 2);
  EXPECT_EQ(in_flight(queue), 2);

  // Closing a connection frees its slot once the server has read its EOF.
  first.reset();
  for (int attempt = 0; attempt < 500 && in_flight(queue) != 1; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    queue = queue_of(second);
  }
  EXPECT_EQ(in_flight(queue), 1);

  UnixClient fourth(path);
  fourth.send(R"({"id":1,"method":"ping"})");
  EXPECT_TRUE(fourth.recv().at("ok").boolean);
  queue = queue_of(fourth);
  EXPECT_EQ(in_flight(queue), 2);
  EXPECT_EQ(static_cast<int>(queue.at("rejected").number), 1);
  fourth.send(R"({"id":2,"method":"shutdown"})");
  EXPECT_TRUE(fourth.recv().at("ok").boolean);
  server.join();
}

TEST(ServeUnixSocketTest, SocketPathTooLongFails) {
  TrackingService service;
  std::string path(200, 'x');
  EXPECT_EQ(serve_unix_socket(service, path, ServerOptions{}), 1);
}

TEST(ServeUnixSocketTest, OverlongLineIsRejectedWithoutUnboundedBuffering) {
  const std::string path =
      (fs::path(::testing::TempDir()) / "pt_serve_cap.sock").string();
  TrackingService service;
  ServerOptions options;
  options.max_line_bytes = 512;
  std::thread server([&] {
    EXPECT_EQ(serve_unix_socket(service, path, options), 0);
  });

  {
    UnixClient client(path);
    // A 3 MB newline-free prefix, far larger than the cap and arriving
    // across many reads, then the newline: the server answers with one
    // typed error instead of buffering it all.
    const std::string flood(64 * 1024, 'x');
    for (int piece = 0; piece < 48; ++piece) client.send_raw(flood);
    client.send("");
    obs::JsonValue rejected = client.recv();
    EXPECT_FALSE(rejected.at("ok").boolean);
    EXPECT_EQ(rejected.at("error").at("code").string, "bad-request");
    // The same connection still serves well-formed requests, including
    // one that shares a write with the end of the next overlong line.
    client.send(R"({"id":1,"method":"ping"})");
    EXPECT_TRUE(client.recv().at("ok").boolean);
    client.send_raw(std::string(4096, 'y') + "\n" +
                    R"({"id":2,"method":"ping"})" "\n");
    EXPECT_EQ(client.recv().at("error").at("code").string, "bad-request");
    obs::JsonValue pong = client.recv();
    EXPECT_TRUE(pong.at("ok").boolean);
    EXPECT_DOUBLE_EQ(pong.at("id").number, 2.0);
    client.send(R"({"id":3,"method":"shutdown"})");
    EXPECT_TRUE(client.recv().at("ok").boolean);
  }
  server.join();
}

TEST(ServeUnixSocketTest, LargeInlineAppendInRandomPiecesMatchesBatch) {
  // A >= 6 MB append_experiment line, written in random pieces of 1 B to
  // 64 KiB, so the server frames it across many uneven reads.
  MiniTraceSpec spec;
  spec.label = "big";
  spec.tasks = 64;
  spec.iterations = 560;
  spec.seed = 5;
  spec.noise = 0.02;
  spec.phases = {MiniPhase{8e6, 1.0, {"p1", "x.c", 1}},
                 MiniPhase{1e6, 2.0, {"p2", "x.c", 2}}};
  std::ostringstream big_text;
  trace::write_trace(big_text, *make_mini_trace(spec));
  const std::string big = big_text.str();
  ASSERT_GE(big.size(), 6'000'000u);
  const std::string small = trace_text("small", 7);

  tracking::TrackingSession batch(ServiceConfig{}.session);
  for (const std::string* text : {&big, &small}) {
    std::istringstream in(*text);
    batch.append_experiment(
        std::make_shared<const trace::Trace>(trace::read_trace(in)));
  }
  const std::string expected = tracking::describe_tracking(batch.retrack());

  const std::string path =
      (fs::path(::testing::TempDir()) / "pt_serve_pieces.sock").string();
  TrackingService service;
  std::thread server([&] {
    EXPECT_EQ(serve_unix_socket(service, path, ServerOptions{}), 0);
  });
  {
    UnixClient client(path);
    client.send(R"({"id":1,"method":"open_study","study":"s"})");
    EXPECT_TRUE(client.recv().at("ok").boolean);
    const std::string line = append_trace_line(2, "s", "big", big) + "\n";
    std::mt19937 rng(11);
    std::uniform_int_distribution<std::size_t> piece(1, 64 * 1024);
    for (std::size_t at = 0; at < line.size();) {
      const std::size_t n = std::min(piece(rng), line.size() - at);
      client.send_raw(line.substr(at, n));
      at += n;
    }
    obs::JsonValue appended = client.recv();
    EXPECT_TRUE(appended.at("ok").boolean);
    client.send(append_trace_line(3, "s", "small", small));
    EXPECT_TRUE(client.recv().at("ok").boolean);
    client.send(R"({"id":4,"method":"regions","study":"s"})");
    obs::JsonValue regions = client.recv();
    ASSERT_TRUE(regions.at("ok").boolean);
    EXPECT_EQ(regions.at("result").at("text").string, expected);
    client.send(R"({"id":5,"method":"shutdown"})");
    EXPECT_TRUE(client.recv().at("ok").boolean);
  }
  server.join();
}

TEST(ServeUnixSocketTest, TwoRequestsInOneWriteGetTwoAnswersInOrder) {
  const std::string path =
      (fs::path(::testing::TempDir()) / "pt_serve_two.sock").string();
  TrackingService service;
  std::thread server([&] {
    EXPECT_EQ(serve_unix_socket(service, path, ServerOptions{}), 0);
  });
  {
    UnixClient client(path);
    client.send_raw(R"({"id":1,"method":"ping"})" "\n"
                    R"({"id":2,"method":"list_studies"})" "\n");
    obs::JsonValue first = client.recv();
    obs::JsonValue second = client.recv();
    EXPECT_DOUBLE_EQ(first.at("id").number, 1.0);
    EXPECT_TRUE(first.at("ok").boolean);
    EXPECT_DOUBLE_EQ(second.at("id").number, 2.0);
    EXPECT_TRUE(second.at("result").has("studies"));
    client.send(R"({"id":3,"method":"shutdown"})");
    EXPECT_TRUE(client.recv().at("ok").boolean);
  }
  server.join();
}

TEST(ServeUnixSocketTest, UnterminatedLastLineAtEofIsServed) {
  const std::string path =
      (fs::path(::testing::TempDir()) / "pt_serve_eof.sock").string();
  TrackingService service;
  std::thread server([&] {
    EXPECT_EQ(serve_unix_socket(service, path, ServerOptions{}), 0);
  });
  {
    UnixClient client(path);
    client.send_raw(R"({"id":7,"method":"ping"})");  // no newline
    client.finish_sending();
    obs::JsonValue pong = client.recv();
    EXPECT_TRUE(pong.at("ok").boolean);
    EXPECT_DOUBLE_EQ(pong.at("id").number, 7.0);
    EXPECT_FALSE(client.recv_line().has_value())
        << "the server closes the connection after the last line";
  }
  {
    UnixClient admin(path);
    admin.send(R"({"id":1,"method":"shutdown"})");
    EXPECT_TRUE(admin.recv().at("ok").boolean);
  }
  server.join();
}

TEST(NdjsonClientTest, LargeResponseAcrossManyReadsAndTheNextOneIntact) {
  // A scripted peer answers the first request with a >= 1 MB line in 1000
  // small writes, the second answer riding in the same write as its end;
  // the client must return both lines whole.
  const std::string path =
      (fs::path(::testing::TempDir()) / "pt_client_large.sock").string();
  ::unlink(path.c_str());
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&address),
                   sizeof(address)),
            0)
      << std::strerror(errno);
  ASSERT_EQ(::listen(listener, 1), 0);

  std::string payload;
  for (std::size_t i = 0; i < 1'200'000; ++i)
    payload += static_cast<char>('a' + (i * 7) % 26);
  const std::string first = R"({"id":1,"ok":true,"result":{"text":")" +
                            payload + "\"}}";
  const std::string second = R"({"id":2,"ok":true,"result":{}})";

  std::thread peer([&] {
    const int fd = ::accept(listener, nullptr, nullptr);
    ASSERT_GE(fd, 0);
    auto read_line = [fd] {
      std::string line;
      char c;
      while (::read(fd, &c, 1) == 1 && c != '\n') line += c;
      return line;
    };
    EXPECT_EQ(read_line(), R"({"id":1})");
    const std::string stream = first + "\n" + second + "\n";
    const std::size_t piece = stream.size() / 1000 + 1;
    for (std::size_t at = 0; at < stream.size(); at += piece) {
      const std::string bytes = stream.substr(at, piece);
      ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
                static_cast<ssize_t>(bytes.size()));
    }
    EXPECT_EQ(read_line(), R"({"id":2})");
    ::close(fd);
  });

  {
    NdjsonClient client(path);
    EXPECT_EQ(client.roundtrip(R"({"id":1})"), first);
    EXPECT_EQ(client.roundtrip(R"({"id":2})"), second);
  }
  peer.join();
  ::close(listener);
  ::unlink(path.c_str());
}

TEST(ServeUnixSocketTest, StaleSocketFromACrashedDaemonIsReplaced) {
  const std::string path =
      (fs::path(::testing::TempDir()) / "pt_serve_stale.sock").string();
  ::unlink(path.c_str());
  // Fake a crashed daemon: a bound socket file with nobody listening.
  {
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&address),
                     sizeof(address)),
              0)
        << std::strerror(errno);
    ::close(fd);
  }
  ASSERT_TRUE(fs::exists(path));

  TrackingService service;
  std::thread server([&] {
    EXPECT_EQ(serve_unix_socket(service, path, ServerOptions{}), 0);
  });
  {
    UnixClient client(path);
    client.send(R"({"id":1,"method":"ping"})");
    EXPECT_TRUE(client.recv().at("ok").boolean);
    client.send(R"({"id":2,"method":"shutdown"})");
    EXPECT_TRUE(client.recv().at("ok").boolean);
  }
  server.join();
}

TEST(ServeUnixSocketTest, LiveDaemonsSocketIsNeverStolen) {
  const std::string path =
      (fs::path(::testing::TempDir()) / "pt_serve_live.sock").string();
  ::unlink(path.c_str());
  TrackingService first;
  std::thread server([&] {
    EXPECT_EQ(serve_unix_socket(first, path, ServerOptions{}), 0);
  });
  {
    // Wait until the first daemon actually listens.
    UnixClient probe(path);
    probe.send(R"({"id":1,"method":"ping"})");
    EXPECT_TRUE(probe.recv().at("ok").boolean);

    // A second daemon on the same path must refuse, not unlink.
    TrackingService second;
    EXPECT_EQ(serve_unix_socket(second, path, ServerOptions{}), 1);

    // The first daemon is untouched.
    probe.send(R"({"id":2,"method":"ping"})");
    EXPECT_TRUE(probe.recv().at("ok").boolean);
    probe.send(R"({"id":3,"method":"shutdown"})");
    EXPECT_TRUE(probe.recv().at("ok").boolean);
  }
  server.join();
}

TEST(ServeUnixSocketTest, NonSocketFileIsRefusedNotRemoved) {
  const std::string path =
      (fs::path(::testing::TempDir()) / "pt_serve_notasock").string();
  {
    std::ofstream out(path);
    out << "precious data\n";
  }
  TrackingService service;
  EXPECT_EQ(serve_unix_socket(service, path, ServerOptions{}), 1);
  ASSERT_TRUE(fs::exists(path)) << "a non-socket file must never be unlinked";
  EXPECT_TRUE(fs::is_regular_file(path));
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// TCP transport (--listen): same protocol and framing over a socketpair the
// client reaches with NdjsonClient's tcp://HOST:PORT endpoint form.

TEST(ServeTcpTest, ServesOverEphemeralPortAndDrainsOnShutdown) {
  TrackingService service;
  std::mutex mutex;
  std::condition_variable ready;
  std::uint16_t port = 0;
  std::thread server([&] {
    EXPECT_EQ(serve_tcp(service, "127.0.0.1", 0, ServerOptions{},
                        [&](std::uint16_t bound) {
                          std::lock_guard<std::mutex> lock(mutex);
                          port = bound;
                          ready.notify_one();
                        }),
              0);
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    ready.wait(lock, [&] { return port != 0; });
  }

  NdjsonClient client("tcp://127.0.0.1:" + std::to_string(port));
  ClientResponse pong = client.call("ping");
  ASSERT_TRUE(pong.ok) << pong.error_message;
  EXPECT_TRUE(pong.result.at("pong").boolean);
  EXPECT_EQ(pong.result.at("proto").number,
            static_cast<double>(kProtocolVersion));

  ASSERT_TRUE(client.call("open_study", "a").ok);
  ClientResponse list = client.call("list_studies");
  ASSERT_TRUE(list.ok);
  EXPECT_EQ(list.result.at("studies").array.size(), 1u);

  ClientResponse down = client.call("shutdown");
  ASSERT_TRUE(down.ok);
  EXPECT_TRUE(down.result.at("draining").boolean);
  server.join();
}

TEST(ServeTcpTest, NonNumericHostIsRefused) {
  TrackingService service;
  EXPECT_EQ(serve_tcp(service, "localhost", 0, ServerOptions{}), 1);
}

TEST(ServeTcpTest, ClientRejectsMalformedTcpEndpoints) {
  EXPECT_THROW(NdjsonClient("tcp://127.0.0.1"), Error);       // no port
  EXPECT_THROW(NdjsonClient("tcp://127.0.0.1:0"), Error);     // port range
  EXPECT_THROW(NdjsonClient("tcp://127.0.0.1:70000"), Error);
  EXPECT_THROW(NdjsonClient("tcp://nothost:1234"), Error);    // not numeric
}

}  // namespace
}  // namespace perftrack::serve
