// TrackingService endpoint semantics, exercised without any transport.
// The load-bearing test is DaemonReadsMatchBatchPipeline: what the daemon
// serves must be byte-identical to a batch perftrack run over the same
// experiment sequence.

#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "testing/test_traces.hpp"
#include "trace/trace_io.hpp"
#include "tracking/report.hpp"
#include "tracking/session.hpp"
#include "tracking/trends.hpp"

namespace perftrack::serve {
namespace {

namespace fs = std::filesystem;

using perftrack::testing::MiniPhase;
using perftrack::testing::MiniTraceSpec;
using perftrack::testing::make_mini_trace;

std::shared_ptr<const trace::Trace> experiment(const std::string& label,
                                               std::uint64_t seed,
                                               double noise = 0.02) {
  MiniTraceSpec spec;
  spec.label = label;
  spec.seed = seed;
  spec.noise = noise;
  spec.phases = {MiniPhase{8e6, 1.0, {"p1", "x.c", 1}},
                 MiniPhase{1e6, 2.0, {"p2", "x.c", 2}}};
  return make_mini_trace(spec);
}

std::string trace_text(const std::string& label, std::uint64_t seed) {
  std::ostringstream out;
  trace::write_trace(out, *experiment(label, seed));
  return out.str();
}

tracking::SessionConfig test_session_config() {
  tracking::SessionConfig config;
  config.clustering.dbscan.eps = 0.05;
  config.clustering.dbscan.min_pts = 3;
  return config;
}

ServiceConfig test_config() {
  ServiceConfig config;
  config.session = test_session_config();
  return config;
}

/// Build a request directly (no JSON round-trip needed for service tests).
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

void set_param(Request& r, const std::string& name, double v) {
  r.params.type = obs::JsonValue::Type::Object;
  obs::JsonValue value;
  value.type = obs::JsonValue::Type::Number;
  value.number = v;
  r.params.object[name] = std::move(value);
}

void set_param(Request& r, const std::string& name, bool v) {
  r.params.type = obs::JsonValue::Type::Object;
  obs::JsonValue value;
  value.type = obs::JsonValue::Type::Bool;
  value.boolean = v;
  r.params.object[name] = std::move(value);
}

/// Handle and require success; returns the parsed result object.
obs::JsonValue ok(TrackingService& service, const Request& request) {
  Response response = service.handle(request);
  EXPECT_TRUE(response.ok) << response.message;
  return obs::parse_json(response.result_json);
}

/// Handle and require a typed failure.
Response fail(TrackingService& service, const Request& request,
              ErrorCode code) {
  Response response = service.handle(request);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.code, code) << response.message;
  return response;
}

void append_inline(TrackingService& service, const std::string& study,
                   const std::string& label, std::uint64_t seed) {
  Request r = req("append_experiment", study);
  set_param(r, "trace", trace_text(label, seed));
  set_param(r, "label", label);
  ok(service, r);
}

TEST(ServiceTest, PingPongs) {
  TrackingService service(test_config());
  EXPECT_TRUE(ok(service, req("ping")).at("pong").boolean);
}

TEST(ServiceTest, UnknownMethodAndUnknownStudyAreTyped) {
  TrackingService service(test_config());
  fail(service, req("frobnicate"), ErrorCode::UnknownMethod);
  fail(service, req("regions", "nope"), ErrorCode::UnknownStudy);
  fail(service, req("regions"), ErrorCode::BadRequest);  // no study field
}

TEST(ServiceTest, OpenStudyIsExclusiveAndCloseForgets) {
  TrackingService service(test_config());
  ok(service, req("open_study", "a"));
  fail(service, req("open_study", "a"), ErrorCode::StudyExists);
  obs::JsonValue list = ok(service, req("list_studies"));
  ASSERT_EQ(list.at("studies").array.size(), 1u);
  EXPECT_EQ(list.at("studies").array[0].string, "a");
  ok(service, req("close_study", "a"));
  fail(service, req("regions", "a"), ErrorCode::UnknownStudy);
  ok(service, req("open_study", "a"));  // name reusable after close
}

TEST(ServiceTest, OpenStudyValidatesOverriddenConfig) {
  TrackingService service(test_config());
  Request r = req("open_study", "bad");
  set_param(r, "eps", -1.0);
  Response response = fail(service, r, ErrorCode::InvalidConfig);
  EXPECT_NE(response.message.find("eps"), std::string::npos);
  // The failed open must not leak a half-created study.
  fail(service, req("regions", "bad"), ErrorCode::UnknownStudy);
}

TEST(ServiceTest, ReadsBeforeTwoAppendsAreBadRequests) {
  TrackingService service(test_config());
  ok(service, req("open_study", "a"));
  fail(service, req("retrack", "a"), ErrorCode::BadRequest);
  append_inline(service, "a", "E1", 1);
  fail(service, req("regions", "a"), ErrorCode::BadRequest);
}

TEST(ServiceTest, DaemonReadsMatchBatchPipeline) {
  // The acceptance criterion: after N appends, regions/trends/coverage are
  // byte-identical to a batch run over the same traces.
  auto a = experiment("A", 1);
  auto b = experiment("B", 2);
  auto c = experiment("C", 3);

  tracking::TrackingSession batch(test_session_config());
  for (const auto& t : {a, b, c}) batch.append_experiment(t);
  tracking::TrackingResult expected = batch.retrack();

  TrackingService service(test_config());
  ok(service, req("open_study", "s"));
  append_inline(service, "s", "A", 1);
  append_inline(service, "s", "B", 2);
  append_inline(service, "s", "C", 3);

  obs::JsonValue regions = ok(service, req("regions", "s"));
  EXPECT_EQ(regions.at("text").string, tracking::describe_tracking(expected));
  EXPECT_EQ(static_cast<std::size_t>(regions.at("regions").number),
            expected.regions.size());
  EXPECT_DOUBLE_EQ(regions.at("coverage").number, expected.coverage);

  obs::JsonValue trends = ok(service, req("trends", "s"));
  EXPECT_EQ(trends.at("csv").string, tracking::trends_csv(expected));

  obs::JsonValue coverage = ok(service, req("coverage", "s"));
  EXPECT_DOUBLE_EQ(coverage.at("effective_coverage").number,
                   expected.effective_coverage());
}

TEST(ServiceTest, ReadsAutoRetrackAfterAppend) {
  TrackingService service(test_config());
  ok(service, req("open_study", "s"));
  append_inline(service, "s", "A", 1);
  append_inline(service, "s", "B", 2);
  obs::JsonValue first = ok(service, req("regions", "s"));
  EXPECT_EQ(static_cast<int>(first.at("experiments").number), 2);

  append_inline(service, "s", "C", 3);
  // No explicit retrack: the read notices staleness and retracks itself.
  obs::JsonValue second = ok(service, req("regions", "s"));
  EXPECT_EQ(static_cast<int>(second.at("experiments").number), 3);

  obs::JsonValue stats = ok(service, req("stats", "s"));
  EXPECT_EQ(static_cast<int>(stats.at("retracks").number), 2);
}

TEST(ServiceTest, TrendsRejectsUnknownMetric) {
  TrackingService service(test_config());
  ok(service, req("open_study", "s"));
  append_inline(service, "s", "A", 1);
  append_inline(service, "s", "B", 2);
  Request r = req("trends", "s");
  set_param(r, "metric", "bogus");
  fail(service, r, ErrorCode::BadRequest);
}

TEST(ServiceTest, StrictAppendFailureLeavesStudyUntouched) {
  TrackingService service(test_config());
  ok(service, req("open_study", "s"));
  Request r = req("append_experiment", "s");
  set_param(r, "trace", std::string("this is not a trace\n"));
  fail(service, r, ErrorCode::ParseFailure);
  Request missing = req("append_experiment", "s");
  set_param(missing, "path", std::string("/nonexistent/file.ptt"));
  Response io = service.handle(missing);
  EXPECT_FALSE(io.ok);
  obs::JsonValue stats = ok(service, req("stats", "s"));
  EXPECT_EQ(static_cast<int>(stats.at("appends").number), 0);
}

TEST(ServiceTest, LenientAppendFailureBecomesTrackedGap) {
  ServiceConfig config = test_config();
  config.session.resilience.lenient = true;
  config.session.resilience.max_gap_fraction = 0.8;
  TrackingService service(config);
  ok(service, req("open_study", "s"));
  append_inline(service, "s", "A", 1);
  append_inline(service, "s", "B", 2);

  Request r = req("append_experiment", "s");
  set_param(r, "trace", std::string("this is not a trace\n"));
  set_param(r, "label", std::string("broken-run"));
  obs::JsonValue result = ok(service, r);
  EXPECT_TRUE(result.at("degraded").boolean);
  EXPECT_FALSE(result.at("gap_reason").string.empty());
  EXPECT_EQ(static_cast<int>(result.at("gaps").number), 1);

  obs::JsonValue regions = ok(service, req("regions", "s"));
  EXPECT_EQ(static_cast<int>(regions.at("gaps").number), 1);
  EXPECT_EQ(static_cast<int>(regions.at("experiments").number), 3);
}

TEST(ServiceTest, ExplicitGapsCountTowardTheSequence) {
  // Tracking across a gap needs lenient resilience, as in the CLI.
  ServiceConfig config = test_config();
  config.session.resilience.lenient = true;
  config.session.resilience.max_gap_fraction = 0.8;
  TrackingService service(config);
  ok(service, req("open_study", "s"));
  append_inline(service, "s", "A", 1);
  Request gap = req("append_gap", "s");
  set_param(gap, "label", std::string("lost-run"));
  set_param(gap, "reason", std::string("cluster maintenance"));
  obs::JsonValue result = ok(service, gap);
  EXPECT_EQ(static_cast<int>(result.at("slot").number), 1);
  append_inline(service, "s", "C", 3);
  obs::JsonValue regions = ok(service, req("regions", "s"));
  EXPECT_EQ(static_cast<int>(regions.at("gaps").number), 1);
}

TEST(ServiceTest, BothOrNeitherOfPathAndTraceIsBadRequest) {
  TrackingService service(test_config());
  ok(service, req("open_study", "s"));
  fail(service, req("append_experiment", "s"), ErrorCode::BadRequest);
  Request both = req("append_experiment", "s");
  set_param(both, "path", std::string("a.ptt"));
  set_param(both, "trace", std::string("x"));
  fail(service, both, ErrorCode::BadRequest);
}

TEST(ServiceTest, EvictedStudyRebuildsWithIdenticalResults) {
  TrackingService service(test_config());
  ok(service, req("open_study", "s"));
  append_inline(service, "s", "A", 1);
  append_inline(service, "s", "B", 2);
  obs::JsonValue before = ok(service, req("regions", "s"));

  obs::JsonValue evicted = ok(service, req("evict", "s"));
  EXPECT_TRUE(evicted.at("evicted").boolean);
  obs::JsonValue stats = ok(service, req("stats", "s"));
  EXPECT_FALSE(stats.at("resident").boolean);
  EXPECT_FALSE(stats.at("tracked").boolean);

  // A repeat regions read is served from the render cache — identical
  // bytes, no session rebuild.
  obs::JsonValue after = ok(service, req("regions", "s"));
  EXPECT_EQ(after.at("text").string, before.at("text").string);
  obs::JsonValue stats2 = ok(service, req("stats", "s"));
  EXPECT_FALSE(stats2.at("resident").boolean);
  EXPECT_EQ(static_cast<int>(stats2.at("rebuilds").number), 0);

  // An uncached read replays the append log into a fresh session; the
  // rebuilt state answers byte-identically to the pre-eviction one.
  ok(service, req("coverage", "s"));
  obs::JsonValue stats3 = ok(service, req("stats", "s"));
  EXPECT_TRUE(stats3.at("resident").boolean);
  EXPECT_EQ(static_cast<int>(stats3.at("rebuilds").number), 1);
  EXPECT_EQ(static_cast<int>(stats3.at("evictions").number), 1);
  obs::JsonValue again = ok(service, req("regions", "s"));
  EXPECT_EQ(again.at("text").string, before.at("text").string);
}

TEST(ServiceTest, OpenStudyIgnoresRetiredCacheParams) {
  // Clients written against the frame-cache era still send cache_dir and
  // no_cache. Both are ignored: even a cache_dir naming a regular file,
  // once an invalid-config error, opens the study and leaves the file be.
  fs::path file = fs::path(::testing::TempDir()) / "pt_serve_not_a_dir";
  fs::remove_all(file);
  { std::ofstream(file) << "occupied"; }

  TrackingService service(test_config());
  Request open = req("open_study", "legacy");
  set_param(open, "cache_dir", file.string());
  set_param(open, "no_cache", true);
  obs::JsonValue opened = ok(service, open);
  EXPECT_EQ(opened.at("study").string, "legacy");
  EXPECT_FALSE(opened.has("cache"));
  ok(service, req("open_study", "plain"));
  for (const char* study : {"legacy", "plain"}) {
    append_inline(service, study, "A", 1);
    append_inline(service, study, "B", 2);
  }
  EXPECT_EQ(ok(service, req("regions", "legacy")).at("text").string,
            ok(service, req("regions", "plain")).at("text").string);
  EXPECT_TRUE(fs::is_regular_file(file));
  fs::remove_all(file);
}

TEST(ServiceTest, SweepEvictsIdleStudiesByTtl) {
  ServiceConfig config = test_config();
  config.idle_ttl_ns = 1;  // everything is instantly idle
  TrackingService service(config);
  ok(service, req("open_study", "s"));
  append_inline(service, "s", "A", 1);
  append_inline(service, "s", "B", 2);
  ok(service, req("retrack", "s"));

  obs::JsonValue swept = ok(service, req("sweep"));
  EXPECT_EQ(static_cast<int>(swept.at("evicted").number), 1);
  obs::JsonValue stats = ok(service, req("stats", "s"));
  EXPECT_FALSE(stats.at("resident").boolean);
}

TEST(ServiceTest, SweepEnforcesResidentCapLruFirst) {
  ServiceConfig config = test_config();
  config.max_resident = 1;
  TrackingService service(config);
  for (const char* name : {"old", "new"}) {
    ok(service, req("open_study", name));
    append_inline(service, name, "A", 1);
    append_inline(service, name, "B", 2);
    ok(service, req("retrack", name));
  }
  // "new" was used last; the cap evicts "old" only.
  obs::JsonValue swept = ok(service, req("sweep"));
  EXPECT_EQ(static_cast<int>(swept.at("evicted").number), 1);
  EXPECT_FALSE(ok(service, req("stats", "old")).at("resident").boolean);
  EXPECT_TRUE(ok(service, req("stats", "new")).at("resident").boolean);
}

TEST(ServiceTest, ServiceStatsAggregateAndReportQueue) {
  TrackingService service(test_config());
  service.set_queue_stats(
      [] { return QueueStats{8, 2, 100, 3}; });
  ok(service, req("open_study", "a"));
  ok(service, req("open_study", "b"));
  append_inline(service, "a", "A", 1);

  obs::JsonValue stats = ok(service, req("stats"));
  EXPECT_EQ(static_cast<int>(stats.at("studies").number), 2);
  EXPECT_EQ(static_cast<int>(stats.at("appends").number), 1);
  EXPECT_FALSE(stats.at("draining").boolean);
  EXPECT_EQ(static_cast<int>(stats.at("queue").at("capacity").number), 8);
  EXPECT_EQ(static_cast<int>(stats.at("queue").at("rejected").number), 3);
}

TEST(ServiceTest, ShutdownSetsTheDrainFlag) {
  TrackingService service(test_config());
  EXPECT_FALSE(service.shutdown_requested());
  obs::JsonValue result = ok(service, req("shutdown"));
  EXPECT_TRUE(result.at("draining").boolean);
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(ServiceTest, HandleLineAnswersGarbageWithBadRequest) {
  TrackingService service(test_config());
  Response response = service.handle_line("{{{");
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.code, ErrorCode::BadRequest);
}

TEST(ServiceTest, PathAppendsLoadFromDisk) {
  fs::path dir = fs::path(::testing::TempDir()) / "pt_serve_paths";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string a = (dir / "a.ptt").string();
  const std::string b = (dir / "b.ptt").string();
  trace::save_trace(a, *experiment("A", 1));
  trace::save_trace(b, *experiment("B", 2));

  TrackingService service(test_config());
  ok(service, req("open_study", "s"));
  for (const std::string& path : {a, b}) {
    Request r = req("append_experiment", "s");
    set_param(r, "path", path);
    ok(service, r);
  }
  obs::JsonValue regions = ok(service, req("regions", "s"));
  EXPECT_EQ(static_cast<int>(regions.at("experiments").number), 2);

  // Eviction + rebuild re-reads the same paths.
  ok(service, req("evict", "s"));
  obs::JsonValue after = ok(service, req("regions", "s"));
  EXPECT_EQ(after.at("text").string, regions.at("text").string);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace perftrack::serve
