// Concurrency stress tests for the tracking service — the CI tsan target.
//
// The contract under test: parallel regions/trends/coverage reads during a
// stream of appends are linearizable against the append log. Every read
// the readers observe must be byte-identical to a serial replay of some
// prefix of the append sequence, and the final state must match the full
// serial replay exactly.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "testing/test_traces.hpp"
#include "trace/trace_io.hpp"
#include "tracking/report.hpp"
#include "tracking/session.hpp"
#include "tracking/trends.hpp"

namespace perftrack::serve {
namespace {

using perftrack::testing::MiniPhase;
using perftrack::testing::MiniTraceSpec;
using perftrack::testing::make_mini_trace;

std::shared_ptr<const trace::Trace> experiment(std::uint64_t seed) {
  MiniTraceSpec spec;
  spec.label = "E" + std::to_string(seed);
  spec.seed = seed;
  spec.noise = 0.02;
  spec.tasks = 2;
  spec.iterations = 3;
  spec.phases = {MiniPhase{8e6, 1.0, {"p1", "x.c", 1}},
                 MiniPhase{1e6, 2.0, {"p2", "x.c", 2}}};
  return make_mini_trace(spec);
}

tracking::SessionConfig fast_config() {
  tracking::SessionConfig config;
  config.clustering.dbscan.eps = 0.05;
  config.clustering.dbscan.min_pts = 3;
  return config;
}

Request req(const std::string& method, const std::string& study = "") {
  Request r;
  r.method = method;
  r.study = study;
  return r;
}

Request append_request(const std::string& study, std::uint64_t seed) {
  Request r = req("append_experiment", study);
  std::ostringstream text;
  trace::write_trace(text, *experiment(seed));
  r.params.type = obs::JsonValue::Type::Object;
  obs::JsonValue trace_param;
  trace_param.type = obs::JsonValue::Type::String;
  trace_param.string = text.str();
  r.params.object["trace"] = std::move(trace_param);
  return r;
}

/// A batch run: describe_tracking() of one retrack of a fresh session.
std::string batch_region_text(const std::vector<std::uint64_t>& seeds) {
  tracking::TrackingSession batch(fast_config());
  for (std::uint64_t seed : seeds) batch.append_experiment(experiment(seed));
  return describe_tracking(batch.retrack());
}

/// Serial replay: the expected describe_tracking() text after the first
/// `prefix` appends of `seeds` (prefix >= 2).
std::map<std::size_t, std::string> serial_region_texts(
    const std::vector<std::uint64_t>& seeds) {
  std::map<std::size_t, std::string> expected;
  for (std::size_t prefix = 2; prefix <= seeds.size(); ++prefix)
    expected[prefix] = batch_region_text(
        std::vector<std::uint64_t>(seeds.begin(), seeds.begin() + prefix));
  return expected;
}

TEST(ServeConcurrencyTest, ParallelReadsDuringAppendsAreLinearizable) {
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5, 6};
  const std::map<std::size_t, std::string> expected =
      serial_region_texts(seeds);

  ServiceConfig config;
  config.session = fast_config();
  TrackingService service(config);
  Response opened = service.handle(req("open_study", "hot"));
  ASSERT_TRUE(opened.ok) << opened.message;

  // Writer: appends the sequence one experiment at a time.
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::uint64_t seed : seeds) {
      Response r = service.handle(append_request("hot", seed));
      EXPECT_TRUE(r.ok) << r.message;
    }
    done.store(true, std::memory_order_release);
  });

  // Readers: hammer regions/trends/coverage/stats while the writer runs.
  // Every successful read must match the serial replay of some prefix.
  const int kReaders = 4;
  std::vector<std::thread> readers;
  std::vector<std::vector<std::string>> observed(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      const char* methods[] = {"regions", "trends", "coverage", "stats"};
      int i = 0;
      while (!done.load(std::memory_order_acquire)) {
        const char* method = methods[i++ % 4];
        Response r = service.handle(req(method, "hot"));
        if (!r.ok) {
          // Only "fewer than two appends yet" is a legal failure here.
          EXPECT_EQ(r.code, ErrorCode::BadRequest) << r.message;
          continue;
        }
        if (std::string(method) == "regions")
          observed[static_cast<std::size_t>(t)].push_back(
              obs::parse_json(r.result_json).at("text").string);
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();

  std::set<std::string> legal;
  for (const auto& [prefix, text] : expected) legal.insert(text);
  for (const auto& texts : observed)
    for (const std::string& text : texts)
      EXPECT_TRUE(legal.count(text) > 0)
          << "read observed a state that no serial prefix produces:\n"
          << text;

  // Final state == full serial replay, byte for byte.
  Response final_regions = service.handle(req("regions", "hot"));
  ASSERT_TRUE(final_regions.ok);
  EXPECT_EQ(obs::parse_json(final_regions.result_json).at("text").string,
            expected.at(seeds.size()));
}

TEST(ServeConcurrencyTest, ManyStudiesInParallelDoNotInterfere) {
  ServiceConfig config;
  config.session = fast_config();
  TrackingService service(config);

  const int kStudies = 6;
  std::vector<std::thread> workers;
  for (int s = 0; s < kStudies; ++s) {
    workers.emplace_back([&, s] {
      const std::string name = "study-" + std::to_string(s);
      EXPECT_TRUE(service.handle(req("open_study", name)).ok);
      const std::uint64_t base = static_cast<std::uint64_t>(s) * 100 + 1;
      for (std::uint64_t i = 0; i < 3; ++i) {
        EXPECT_TRUE(service.handle(append_request(name, base + i)).ok);
        if (i >= 1) {
          EXPECT_TRUE(service.handle(req("regions", name)).ok);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  // Each study's final result matches its own serial replay.
  for (int s = 0; s < kStudies; ++s) {
    const std::string name = "study-" + std::to_string(s);
    const std::uint64_t base = static_cast<std::uint64_t>(s) * 100 + 1;
    const std::string expected =
        batch_region_text({base, base + 1, base + 2});

    Response r = service.handle(req("regions", name));
    ASSERT_TRUE(r.ok) << r.message;
    EXPECT_EQ(obs::parse_json(r.result_json).at("text").string, expected)
        << name;
  }
}

TEST(ServeConcurrencyTest, EvictionRacesWithReadsSafely) {
  ServiceConfig config;
  config.session = fast_config();
  config.idle_ttl_ns = 1;  // sweep() always evicts whatever is idle
  TrackingService service(config);
  service.handle(req("open_study", "churn"));
  service.handle(append_request("churn", 1));
  service.handle(append_request("churn", 2));

  const std::string expected = batch_region_text({1, 2});

  // Daemon-wide stats: unlike a study's own stats, they leave the study's
  // idle clock alone.
  auto rebuilds = [&] {
    Response stats = service.handle(req("stats"));
    return stats.ok ? obs::parse_json(stats.result_json).at("rebuilds").number
                    : 0.0;
  };
  std::atomic<bool> stop{false};
  std::thread evictor([&] {
    while (!stop.load(std::memory_order_acquire)) service.sweep();
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      // An eviction needs a gap between reads, which a loaded host may not
      // give within 25 rounds: keep racing until one rebuild happened.
      for (int i = 0; i < 25 || (i < 5000 && rebuilds() < 1.0); ++i) {
        Response r = service.handle(req("regions", "churn"));
        ASSERT_TRUE(r.ok) << r.message;
        // Rebuild-after-evict must reproduce the identical result.
        EXPECT_EQ(obs::parse_json(r.result_json).at("text").string, expected);
        // coverage is not render-cached, so this read races an actual
        // session rebuild against the evictor.
        Response c = service.handle(req("coverage", "churn"));
        ASSERT_TRUE(c.ok) << c.message;
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  stop.store(true, std::memory_order_release);
  evictor.join();

  Response stats = service.handle(req("stats", "churn"));
  ASSERT_TRUE(stats.ok);
  obs::JsonValue v = obs::parse_json(stats.result_json);
  EXPECT_GE(v.at("rebuilds").number, 1.0) << "eviction actually happened";
}

TEST(ServeConcurrencyTest, MetricsSampledDuringConcurrentAppends) {
  // Samplers hammer stats/metrics/health while writers append — the
  // snapshot path must never block or tear while the histograms are
  // being recorded into.
  ServiceConfig config;
  config.session = fast_config();
  TrackingService service(config);
  ASSERT_TRUE(service.handle(req("open_study", "live")).ok);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
      EXPECT_TRUE(service.handle(append_request("live", seed)).ok);
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> samplers;
  for (int t = 0; t < 3; ++t) {
    samplers.emplace_back([&] {
      const char* methods[] = {"metrics", "stats", "health"};
      int i = 0;
      double last_appends = 0.0;
      while (!done.load(std::memory_order_acquire)) {
        const char* method = methods[i++ % 3];
        Response r = service.handle(req(method));
        ASSERT_TRUE(r.ok) << r.message;
        obs::JsonValue v = obs::parse_json(r.result_json);
        if (std::string(method) == "metrics") {
          // The append counter is monotone under this sampler.
          const double appends =
              v.at("counters")
                  .at("perftrackd_requests_total"
                      "{method=\"append_experiment\"}")
                  .number;
          EXPECT_GE(appends, last_appends);
          last_appends = appends;
        } else if (std::string(method) == "health") {
          EXPECT_TRUE(v.at("ok").boolean);
        }
      }
    });
  }
  writer.join();
  for (std::thread& sampler : samplers) sampler.join();

  // Quiesced: the histograms agree with the work that actually ran.
  Response metrics = service.handle(req("metrics"));
  ASSERT_TRUE(metrics.ok);
  obs::JsonValue v = obs::parse_json(metrics.result_json);
  EXPECT_EQ(v.at("histograms")
                .at("perftrackd_handler_ns{method=\"append_experiment\"}")
                .at("count")
                .number,
            6.0);
}

TEST(ServeConcurrencyTest, StreamServerUnderParallelLoadAnswersEverything) {
  TrackingService service;
  std::string input;
  input += R"({"id":0,"method":"open_study","study":"s"})" "\n";
  const int kRequests = 200;
  for (int i = 1; i <= kRequests; ++i)
    input += R"({"id":)" + std::to_string(i) + R"(,"method":"ping"})" "\n";
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_EQ(serve_stream(service, in, out, ServerOptions{}), 0);

  // Every request got exactly one answer, in order.
  std::istringstream lines(out.str());
  std::string line;
  int id = 0;
  while (std::getline(lines, line)) {
    obs::JsonValue v = obs::parse_json(line);
    EXPECT_DOUBLE_EQ(v.at("id").number, static_cast<double>(id));
    ++id;
  }
  EXPECT_EQ(id, kRequests + 1);
}

}  // namespace
}  // namespace perftrack::serve
