// The serve-layer metrics plane: stats/metrics/health round-trips,
// Prometheus exposition over the protocol and over the HTTP scrape
// endpoint, the access log's request records, and the metrics-off mode.

#include "serve/metrics.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>

#include "obs/json.hpp"
#include "serve/access_log.hpp"
#include "serve/client.hpp"
#include "serve/metrics_http.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "testing/test_traces.hpp"
#include "trace/trace_io.hpp"

namespace perftrack::serve {
namespace {

namespace fs = std::filesystem;

using perftrack::testing::MiniPhase;
using perftrack::testing::MiniTraceSpec;
using perftrack::testing::make_mini_trace;

std::string trace_text(const std::string& label, std::uint64_t seed) {
  MiniTraceSpec spec;
  spec.label = label;
  spec.seed = seed;
  spec.noise = 0.02;
  spec.phases = {MiniPhase{8e6, 1.0, {"p1", "x.c", 1}},
                 MiniPhase{1e6, 2.0, {"p2", "x.c", 2}}};
  std::ostringstream out;
  trace::write_trace(out, *make_mini_trace(spec));
  return out.str();
}

ServiceConfig test_config() {
  ServiceConfig config;
  config.session.clustering.dbscan.eps = 0.05;
  config.session.clustering.dbscan.min_pts = 3;
  return config;
}

Request req(const std::string& method, const std::string& study = "") {
  Request r;
  r.method = method;
  r.study = study;
  return r;
}

void set_param(Request& r, const std::string& name, const std::string& v) {
  r.params.type = obs::JsonValue::Type::Object;
  obs::JsonValue value;
  value.type = obs::JsonValue::Type::String;
  value.string = v;
  r.params.object[name] = std::move(value);
}

obs::JsonValue result_of(const Response& response) {
  EXPECT_TRUE(response.ok) << response.message;
  return obs::parse_json(response.result_json);
}

// ---------------------------------------------------------------------------
// Protocol surface

TEST(ServeMetricsTest, HealthReportsOkAndUptime) {
  TrackingService service(test_config());
  const obs::JsonValue health = result_of(service.handle(req("health")));
  EXPECT_TRUE(health.at("ok").boolean);
  EXPECT_FALSE(health.at("draining").boolean);
  EXPECT_GE(health.at("uptime_ns").number, 0.0);
  EXPECT_EQ(health.at("studies").number, 0.0);
}

TEST(ServeMetricsTest, MetricsMethodReturnsJsonSnapshot) {
  TrackingService service(test_config());
  service.handle(req("ping"));
  service.handle(req("ping"));
  const obs::JsonValue snap = result_of(service.handle(req("metrics")));
  EXPECT_EQ(
      snap.at("counters").at("perftrackd_requests_total{method=\"ping\"}")
          .number,
      2.0);
  // The handler histogram fills even without a transport in front.
  const obs::JsonValue& hist = snap.at("histograms")
      .at("perftrackd_handler_ns{method=\"ping\"}");
  EXPECT_EQ(hist.at("count").number, 2.0);
  EXPECT_GE(hist.at("p99").number, hist.at("p50").number);
}

TEST(ServeMetricsTest, MetricsMethodPrometheusFormat) {
  TrackingService service(test_config());
  service.handle(req("ping"));
  Request request = req("metrics");
  set_param(request, "format", "prometheus");
  const obs::JsonValue result = result_of(service.handle(request));
  EXPECT_EQ(result.at("content_type").string,
            "text/plain; version=0.0.4");
  const std::string& text = result.at("text").string;
  EXPECT_NE(text.find("# TYPE perftrackd_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("perftrackd_requests_total{method=\"ping\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE perftrackd_uptime_seconds gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE perftrackd_handler_ns histogram\n"),
            std::string::npos);
}

TEST(ServeMetricsTest, MetricsMethodRejectsUnknownFormat) {
  TrackingService service(test_config());
  Request request = req("metrics");
  set_param(request, "format", "xml");
  const Response response = service.handle(request);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.code, ErrorCode::BadRequest);
}

TEST(ServeMetricsTest, ErrorsAreCountedByCode) {
  TrackingService service(test_config());
  service.handle(req("regions", "never-opened"));
  service.handle(req("no_such_method"));
  service.handle_line("not json");
  const obs::JsonValue snap = result_of(service.handle(req("metrics")));
  EXPECT_EQ(snap.at("counters")
                .at("perftrackd_errors_total{code=\"unknown-study\"}")
                .number,
            1.0);
  EXPECT_EQ(snap.at("counters")
                .at("perftrackd_errors_total{code=\"bad-request\"}")
                .number,
            1.0);
  EXPECT_EQ(snap.at("counters")
                .at("perftrackd_errors_total{code=\"unknown-method\"}")
                .number,
            1.0);
  // Unknown methods share the bounded "other" request slot.
  EXPECT_EQ(
      snap.at("counters").at("perftrackd_requests_total{method=\"other\"}")
          .number,
      1.0);
}

TEST(ServeMetricsTest, StatsCarriesLatencySectionAndCacheTotals) {
  TrackingService service(test_config());
  service.handle(req("open_study", "s"));
  for (int i = 0; i < 3; ++i) {
    Request append = req("append_experiment", "s");
    set_param(append, "trace", trace_text("E" + std::to_string(i), 40 + i));
    ASSERT_TRUE(service.handle(append).ok);
  }
  ASSERT_TRUE(service.handle(req("retrack", "s")).ok);

  const obs::JsonValue stats = result_of(service.handle(req("stats")));
  EXPECT_GT(stats.at("uptime_ns").number, 0.0);
  // Cache totals are the render cache's; there is no other cache block.
  ASSERT_TRUE(stats.has("render_cache"));
  EXPECT_GE(stats.at("render_cache").at("hits").number, 0.0);
  EXPECT_FALSE(stats.has("cache"));
  ASSERT_TRUE(stats.has("latency"));
  const obs::JsonValue& latency = stats.at("latency");
  ASSERT_TRUE(latency.has("append_experiment"));
  EXPECT_EQ(latency.at("append_experiment").at("count").number, 3.0);
  EXPECT_GE(latency.at("append_experiment").at("p99_ns").number,
            latency.at("append_experiment").at("p50_ns").number);
  EXPECT_GE(latency.at("retrack").at("max_ns").number,
            latency.at("retrack").at("p99_ns").number / (1.0 + 1.0 / 32));
}

TEST(ServeMetricsTest, MetricsOffRecordsNothing) {
  ServiceConfig config = test_config();
  config.metrics = false;
  TrackingService service(config);
  service.handle(req("ping"));
  service.handle(req("regions", "nope"));
  const obs::JsonValue snap = result_of(service.handle(req("metrics")));
  EXPECT_EQ(
      snap.at("counters").at("perftrackd_requests_total{method=\"ping\"}")
          .number,
      0.0);
  const obs::JsonValue stats = result_of(service.handle(req("stats")));
  EXPECT_TRUE(stats.at("latency").object.empty());
}

TEST(ServeMetricsTest, LatencyOverStreamTransportIsEndToEnd) {
  // Through serve_stream the request histograms (not just handler) fill,
  // and the phase histograms see parse/write.
  TrackingService service(test_config());
  std::istringstream in(
      "{\"id\":1,\"method\":\"ping\"}\n"
      "{\"id\":2,\"method\":\"ping\"}\n"
      "not json\n");
  std::ostringstream out;
  ASSERT_EQ(serve_stream(service, in, out, ServerOptions{}), 0);

  const obs::JsonValue snap = result_of(service.handle(req("metrics")));
  EXPECT_EQ(snap.at("histograms")
                .at("perftrackd_request_ns{method=\"ping\"}")
                .at("count")
                .number,
            2.0);
  EXPECT_EQ(
      snap.at("counters").at("perftrackd_requests_total{method=\"invalid\"}")
          .number,
      1.0);
  EXPECT_EQ(snap.at("counters")
                .at("perftrackd_errors_total{code=\"bad-request\"}")
                .number,
            1.0);
  EXPECT_GE(snap.at("histograms")
                .at("perftrackd_phase_ns{phase=\"parse\"}")
                .at("count")
                .number,
            2.0);
  EXPECT_GE(snap.at("histograms")
                .at("perftrackd_phase_ns{phase=\"write\"}")
                .at("count")
                .number,
            2.0);
}

// ---------------------------------------------------------------------------
// Access log

TEST(ServeAccessLogTest, OneLinePerRequestWithPhaseBreakdown) {
  TrackingService service(test_config());
  std::ostringstream log_stream;
  AccessLog log(log_stream);
  ServerOptions options;
  options.access_log = &log;

  std::istringstream in(
      "{\"id\":7,\"method\":\"ping\"}\n"
      "{\"id\":\"abc\",\"method\":\"regions\",\"study\":\"missing\"}\n"
      "garbage\n");
  std::ostringstream out;
  ASSERT_EQ(serve_stream(service, in, out, options), 0);

  std::istringstream lines(log_stream.str());
  std::string line;
  int count = 0;
  bool saw_ping = false, saw_error = false, saw_invalid = false;
  while (std::getline(lines, line)) {
    ++count;
    const obs::JsonValue record = obs::parse_json(line);
    ASSERT_TRUE(record.is_object()) << line;
    EXPECT_TRUE(record.has("ts_ms"));
    EXPECT_TRUE(record.has("outcome"));
    EXPECT_TRUE(record.has("total_us"));
    const std::string& method = record.at("method").string;
    if (method == "ping") {
      saw_ping = true;
      EXPECT_EQ(record.at("outcome").string, "ok");
      EXPECT_EQ(record.at("id").string, "7");
    } else if (method == "regions") {
      saw_error = true;
      EXPECT_EQ(record.at("outcome").string, "unknown-study");
      EXPECT_EQ(record.at("study").string, "missing");
    } else if (method == "invalid") {
      saw_invalid = true;
      EXPECT_EQ(record.at("outcome").string, "bad-request");
    }
  }
  EXPECT_EQ(count, 3);
  EXPECT_TRUE(saw_ping);
  EXPECT_TRUE(saw_error);
  EXPECT_TRUE(saw_invalid);
}

TEST(ServeAccessLogTest, SlowThresholdZeroDumpsSpanTreePerRequest) {
  TrackingService service(test_config());
  std::ostringstream log_stream;
  AccessLog log(log_stream);
  ServerOptions options;
  options.access_log = &log;
  options.slow_ns = 0;  // every request is "slow"

  std::istringstream in("{\"id\":1,\"method\":\"ping\"}\n");
  std::ostringstream out;
  ASSERT_EQ(serve_stream(service, in, out, options), 0);

  std::string line;
  std::istringstream lines(log_stream.str());
  ASSERT_TRUE(static_cast<bool>(std::getline(lines, line)));
  const obs::JsonValue record = obs::parse_json(line);
  EXPECT_TRUE(record.at("slow").boolean);
  ASSERT_TRUE(record.has("spans"));
  EXPECT_TRUE(record.at("spans").is_array());
}

// ---------------------------------------------------------------------------
// HTTP scrape endpoint

std::string http_get(const std::string& socket_path,
                     const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, socket_path.c_str(),
              socket_path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof(address)),
            0);
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0)
    response.append(chunk, static_cast<std::size_t>(n));
  ::close(fd);
  return response;
}

TEST(ServeMetricsHttpTest, ScrapesPrometheusTextOverUnixSocket) {
  TrackingService service(test_config());
  service.handle(req("ping"));

  const std::string socket_path =
      (fs::temp_directory_path() /
       ("pt_metrics_" + std::to_string(::getpid()) + ".sock"))
          .string();
  MetricsHttpServer http(service);
  ASSERT_TRUE(http.start_unix(socket_path));

  const std::string metrics = http_get(socket_path, "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(metrics.find("perftrackd_requests_total{method=\"ping\"} 1"),
            std::string::npos);

  const std::string json = http_get(socket_path, "/metrics.json");
  EXPECT_NE(json.find("Content-Type: application/json"),
            std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);

  const std::string health = http_get(socket_path, "/health");
  EXPECT_NE(health.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(health.find("\"ok\":true"), std::string::npos);

  EXPECT_NE(http_get(socket_path, "/nope").find("404"), std::string::npos);

  http.stop();
  EXPECT_FALSE(fs::exists(socket_path));
}

TEST(ServeMetricsHttpTest, TcpEphemeralPortResolves) {
  TrackingService service(test_config());
  MetricsHttpServer http(service);
  ASSERT_TRUE(http.start_tcp(0));
  EXPECT_GT(http.port(), 0);
  http.stop();
  EXPECT_EQ(http.port(), 0);
}

// ---------------------------------------------------------------------------
// Client

TEST(ServeStatClientTest, RoundTripsAgainstUnixDaemon) {
  // Full loop: daemon on a unix socket, NdjsonClient calling stats — the
  // `perftrack stat` path minus the table rendering.
  const std::string socket_path =
      (fs::temp_directory_path() /
       ("pt_statd_" + std::to_string(::getpid()) + ".sock"))
          .string();
  TrackingService service(test_config());
  ServerOptions options;
  std::thread daemon([&] {
    serve_unix_socket(service, socket_path, options);
  });
  while (!fs::exists(socket_path))
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

  {
    NdjsonClient client(socket_path);
    ClientResponse pong = client.call("ping");
    ASSERT_TRUE(pong.ok);
    EXPECT_TRUE(pong.result.at("pong").boolean);

    ClientResponse stats = client.call("stats");
    ASSERT_TRUE(stats.ok);
    EXPECT_TRUE(stats.result.has("latency"));
    EXPECT_TRUE(stats.result.has("queue"));

    ClientResponse bad = client.call("never_heard_of_it");
    ASSERT_FALSE(bad.ok);
    EXPECT_EQ(bad.error_code, "unknown-method");

    ASSERT_TRUE(client.call("shutdown").ok);
  }
  daemon.join();
}

}  // namespace
}  // namespace perftrack::serve
