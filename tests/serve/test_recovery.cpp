// Crash-safe durability, end to end: a TrackingService (or a real
// perftrackd process) restarted on the same --state-dir must answer
// regions/trends byte-identically to one that never went down.
//
// The headline case, KillNineMidAppendRecoversIdentically, spawns the real
// daemon binary (PT_PERFTRACKD_BIN), fires an append at it and SIGKILLs it
// with the request in flight, then restarts on the same state dir and
// retries with the same idempotency seq — the recovered study must match a
// never-crashed reference byte for byte. CI runs it repeatedly (the kill
// lands at a different byte offset every time) and once under tsan.

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "serve/client.hpp"
#include "serve/service.hpp"
#include "sim/studies.hpp"
#include "testing/test_traces.hpp"
#include "trace/trace_io.hpp"

namespace perftrack::serve {
namespace {

namespace fs = std::filesystem;

using perftrack::testing::MiniPhase;
using perftrack::testing::MiniTraceSpec;
using perftrack::testing::make_mini_trace;

std::shared_ptr<const trace::Trace> experiment(const std::string& label,
                                               std::uint64_t seed) {
  MiniTraceSpec spec;
  spec.label = label;
  spec.seed = seed;
  spec.noise = 0.02;
  spec.phases = {MiniPhase{8e6, 1.0, {"p1", "x.c", 1}},
                 MiniPhase{1e6, 2.0, {"p2", "x.c", 2}}};
  return make_mini_trace(spec);
}

std::string trace_text(const std::string& label, std::uint64_t seed) {
  std::ostringstream out;
  trace::write_trace(out, *experiment(label, seed));
  return out.str();
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

void set_param(Request& r, const std::string& name, double v) {
  r.params.type = obs::JsonValue::Type::Object;
  obs::JsonValue value;
  value.type = obs::JsonValue::Type::Number;
  value.number = v;
  r.params.object[name] = std::move(value);
}

obs::JsonValue ok(TrackingService& service, const Request& request) {
  Response response = service.handle(request);
  EXPECT_TRUE(response.ok) << request.method << ": " << response.message;
  return obs::parse_json(response.result_json);
}

Response fail(TrackingService& service, const Request& request,
              ErrorCode code) {
  Response response = service.handle(request);
  EXPECT_FALSE(response.ok) << request.method << " unexpectedly succeeded";
  EXPECT_EQ(response.code, code) << response.message;
  return response;
}

Request append_req(const std::string& study, const std::string& label,
                   std::uint64_t seed, double seq = 0.0) {
  Request r = req("append_experiment", study);
  set_param(r, "trace", trace_text(label, seed));
  set_param(r, "label", label);
  if (seq > 0.0) set_param(r, "seq", seq);
  return r;
}

class RecoveryTest : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("pt_recovery_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    if (!HasFailure()) fs::remove_all(dir_);
    // On failure the pt_recovery_* dir (journals, quarantined files) is
    // left behind for the CI artifact upload.
  }

  ServiceConfig durable_config() const {
    ServiceConfig config;
    config.session.clustering.dbscan.eps = 0.05;
    config.session.clustering.dbscan.min_pts = 3;
    // Lenient so studies with gap entries still answer reads — and so the
    // journaled resilience flag itself round-trips through recovery.
    config.session.resilience.lenient = true;
    config.journal.directory = (dir_ / "state").string();
    config.journal.fsync = FsyncMode::Always;
    return config;
  }

  fs::path dir_;
};

TEST_F(RecoveryTest, RestartAnswersRegionsAndTrendsIdentically) {
  std::string regions_before;
  std::string trends_before;
  {
    TrackingService service(durable_config());
    ok(service, req("open_study", "wrf"));
    ok(service, append_req("wrf", "run1", 101));
    ok(service, append_req("wrf", "run2", 102));
    Request gap = req("append_gap", "wrf");
    set_param(gap, "label", "crash");
    set_param(gap, "reason", "node died");
    ok(service, gap);
    ok(service, append_req("wrf", "run3", 103));
    Response regions = service.handle(req("regions", "wrf"));
    ASSERT_TRUE(regions.ok) << regions.message;
    regions_before = regions.result_json;
    Response trends = service.handle(req("trends", "wrf"));
    ASSERT_TRUE(trends.ok) << trends.message;
    trends_before = trends.result_json;
  }  // destructor = clean shutdown; journals are already synced (Always)

  TrackingService restarted(durable_config());
  obs::JsonValue listing = ok(restarted, req("list_studies"));
  ASSERT_EQ(listing.at("studies").array.size(), 1u);

  Response regions = restarted.handle(req("regions", "wrf"));
  ASSERT_TRUE(regions.ok) << regions.message;
  EXPECT_EQ(regions.result_json, regions_before);
  Response trends = restarted.handle(req("trends", "wrf"));
  ASSERT_TRUE(trends.ok) << trends.message;
  EXPECT_EQ(trends.result_json, trends_before);

  obs::JsonValue stats = ok(restarted, req("stats"));
  const obs::JsonValue& journal = stats.at("journal");
  EXPECT_TRUE(journal.at("enabled").boolean);
  EXPECT_DOUBLE_EQ(journal.at("recovered").number, 1.0);
  EXPECT_DOUBLE_EQ(journal.at("quarantined").number, 0.0);
}

std::string file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST_F(RecoveryTest, FrameCacheEraJournalRecoversIdentically) {
  // A journal written before the frame cache was removed: study "legacy",
  // opened with {"cache_dir":"/tmp/pt-legacy-cache"} under durable_config()
  // and given two inline appends (run1/101, run2/102). Its create record
  // still carries that directory. The committed regions/trends bytes are
  // what that build answered for the same two appends (the same with and
  // without a cache directory). Recovery reads the retired field, drops
  // it, and must answer the same bytes.
  const fs::path data = fs::path(PT_TEST_DATA_DIR) / "serve" / "data";
  const fs::path state = dir_ / "state";
  fs::create_directories(state);
  fs::copy_file(data / "legacy_cache_dir.journal",
                state / journal_file_name("legacy"));

  TrackingService restarted(durable_config());
  obs::JsonValue listing = ok(restarted, req("list_studies"));
  ASSERT_EQ(listing.at("studies").array.size(), 1u);
  EXPECT_EQ(listing.at("studies").array[0].string, "legacy");

  Response regions = restarted.handle(req("regions", "legacy"));
  ASSERT_TRUE(regions.ok) << regions.message;
  EXPECT_EQ(regions.result_json,
            file_bytes(data / "legacy_cache_dir_regions.json"));
  Response trends = restarted.handle(req("trends", "legacy"));
  ASSERT_TRUE(trends.ok) << trends.message;
  EXPECT_EQ(trends.result_json,
            file_bytes(data / "legacy_cache_dir_trends.json"));

  obs::JsonValue stats = ok(restarted, req("stats"));
  EXPECT_DOUBLE_EQ(stats.at("journal").at("recovered").number, 1.0);
  EXPECT_DOUBLE_EQ(stats.at("journal").at("quarantined").number, 0.0);
}

TEST_F(RecoveryTest, TruncatedJournalRecoversThePrefix) {
  {
    TrackingService service(durable_config());
    ok(service, req("open_study", "wrf"));
    ok(service, append_req("wrf", "run1", 101));
    ok(service, append_req("wrf", "run2", 102));
    ok(service, append_req("wrf", "run3", 103));
  }
  // Tear the tail the way a crash mid-write does.
  const fs::path journal =
      dir_ / "state" / journal_file_name("wrf");
  ASSERT_TRUE(fs::exists(journal));
  fs::resize_file(journal, fs::file_size(journal) - 5);

  TrackingService restarted(durable_config());
  std::string recovered =
      restarted.handle(req("regions", "wrf")).result_json;

  // Reference: the same study that only ever saw the surviving prefix.
  ServiceConfig reference_config = durable_config();
  reference_config.journal.directory = (dir_ / "ref_state").string();
  TrackingService reference(reference_config);
  ok(reference, req("open_study", "wrf"));
  ok(reference, append_req("wrf", "run1", 101));
  ok(reference, append_req("wrf", "run2", 102));
  EXPECT_EQ(recovered, reference.handle(req("regions", "wrf")).result_json);

  obs::JsonValue stats = ok(restarted, req("stats"));
  EXPECT_DOUBLE_EQ(stats.at("journal").at("truncated").number, 1.0);
}

TEST_F(RecoveryTest, RetriedSeqAppliesExactlyOnce) {
  TrackingService service(durable_config());
  ok(service, req("open_study", "wrf"));

  obs::JsonValue first = ok(service, append_req("wrf", "run1", 101, 1.0));
  EXPECT_FALSE(first.has("deduped"));

  // The retry of an applied seq is acknowledged without re-appending.
  obs::JsonValue retry = ok(service, append_req("wrf", "run1", 101, 1.0));
  EXPECT_TRUE(retry.at("deduped").boolean);
  EXPECT_DOUBLE_EQ(retry.at("experiments").number, 1.0);

  obs::JsonValue second = ok(service, append_req("wrf", "run2", 102, 2.0));
  EXPECT_DOUBLE_EQ(second.at("experiments").number, 2.0);

  obs::JsonValue stats = ok(service, req("stats"));
  EXPECT_DOUBLE_EQ(stats.at("journal").at("deduped").number, 1.0);

  Request bad = append_req("wrf", "run3", 103);
  set_param(bad, "seq", 0.5);
  fail(service, bad, ErrorCode::BadRequest);
}

TEST_F(RecoveryTest, ConcurrentRetriesOfTheSameSeqApplyOnce) {
  TrackingService service(durable_config());
  ok(service, req("open_study", "wrf"));

  // Four impatient clients all retry the same 8 appends — the tsan leg of
  // CI watches the seq-dedupe path for races.
  constexpr int kAppends = 8;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service] {
      for (int i = 1; i <= kAppends; ++i) {
        Response response = service.handle(append_req(
            "wrf", "run" + std::to_string(i),
            static_cast<std::uint64_t>(100 + i), static_cast<double>(i)));
        EXPECT_TRUE(response.ok) << response.message;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  obs::JsonValue stats = ok(service, req("stats", "wrf"));
  EXPECT_DOUBLE_EQ(stats.at("appends").number,
                   static_cast<double>(kAppends));
  EXPECT_DOUBLE_EQ(stats.at("journal").at("last_seq").number,
                   static_cast<double>(kAppends));
}

TEST_F(RecoveryTest, VanishedTracePathFailsTypedAndKeepsOtherStudies) {
  // Satellite regression: replaying an evicted study whose on-disk trace
  // vanished must fail with `replay-failed`, keep the study evicted, and
  // leave every other study untouched.
  // Reads need at least two experiments, so give each study two; the
  // first trace file of "fragile" is the one that vanishes.
  const fs::path trace_path = dir_ / "exp1.ptt";
  const fs::path trace_path2 = dir_ / "exp2.ptt";
  {
    std::ofstream out(trace_path);
    trace::write_trace(out, *experiment("exp1", 201));
    std::ofstream out2(trace_path2);
    trace::write_trace(out2, *experiment("exp2", 202));
  }

  ServiceConfig config;
  config.session.clustering.dbscan.eps = 0.05;
  config.session.clustering.dbscan.min_pts = 3;
  TrackingService service(config);

  ok(service, req("open_study", "fragile"));
  for (const fs::path& path : {trace_path, trace_path2}) {
    Request append = req("append_experiment", "fragile");
    set_param(append, "path", path.string());
    ok(service, append);
  }

  ok(service, req("open_study", "healthy"));
  ok(service, append_req("healthy", "run1", 301));
  ok(service, append_req("healthy", "run2", 302));

  ok(service, req("evict", "fragile"));
  fs::remove(trace_path);

  Response replay = service.handle(req("regions", "fragile"));
  EXPECT_FALSE(replay.ok);
  EXPECT_EQ(replay.code, ErrorCode::ReplayFailed) << replay.message;
  EXPECT_NE(replay.message.find("exp1.ptt"), std::string::npos)
      << replay.message;

  // Still registered (the log survives), still failing the same way.
  obs::JsonValue listing = ok(service, req("list_studies"));
  EXPECT_EQ(listing.at("studies").array.size(), 2u);
  fail(service, req("regions", "fragile"), ErrorCode::ReplayFailed);

  // The healthy study is oblivious.
  EXPECT_TRUE(service.handle(req("regions", "healthy")).ok);
}

TEST_F(RecoveryTest, ClientDeadlineBoundsAConnectToNobody) {
  RetryPolicy retry;
  retry.attempts = 2;
  retry.deadline_ms = 50;
  retry.backoff_ms = 1;
  retry.backoff_max_ms = 2;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(
      NdjsonClient((dir_ / "no_daemon.sock").string(), retry), Error);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
}

// ---------------------------------------------------------------------------
// The subprocess crash harness: a real perftrackd, really SIGKILLed.

pid_t spawn_daemon(const std::string& socket_path,
                   const std::string& state_dir) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execl(PT_PERFTRACKD_BIN, PT_PERFTRACKD_BIN, "--socket",
            socket_path.c_str(), "--state-dir", state_dir.c_str(), "--fsync",
            "always", "--no-cache", static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed
  }
  return pid;
}

RetryPolicy daemon_retry() {
  RetryPolicy retry;
  retry.attempts = 200;  // cover a slow daemon boot under sanitizers
  retry.deadline_ms = 250;
  retry.backoff_ms = 5;
  retry.backoff_max_ms = 50;
  return retry;
}

std::string params_json(const std::string& trace, const std::string& label,
                        std::uint64_t seq) {
  obs::JsonWriter json;
  json.begin_object();
  json.key("trace").value(trace);
  json.key("label").value(label);
  json.key("seq").value(seq);
  json.end_object();
  return json.str();
}

/// Strip the protocol envelope `{"ok":true,"result":...}` off a raw
/// response line, for the byte-identity comparison.
std::string raw_result(NdjsonClient& client, const std::string& method,
                       const std::string& study) {
  obs::JsonWriter json;
  json.begin_object();
  json.key("method").value(method);
  json.key("study").value(study);
  json.end_object();
  const std::string line = client.roundtrip(json.str());
  const std::string prefix = "{\"ok\":true,\"result\":";
  EXPECT_EQ(line.rfind(prefix, 0), 0u) << line;
  if (line.rfind(prefix, 0) != 0) return line;
  return line.substr(prefix.size(), line.size() - prefix.size() - 1);
}

/// Fire one request line at the socket and do NOT wait for the answer —
/// the caller SIGKILLs the daemon with this request in flight.
void fire_and_forget(const std::string& socket_path,
                     const std::string& line) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  ASSERT_LT(socket_path.size(), sizeof(address.sun_path));
  std::memcpy(address.sun_path, socket_path.c_str(),
              socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof(address)),
            0)
      << std::strerror(errno);
  const std::string payload = line + "\n";
  (void)::send(fd, payload.data(), payload.size(), MSG_NOSIGNAL);
  ::close(fd);
}

TEST_F(RecoveryTest, KillNineMidAppendRecoversIdentically) {
  const std::string socket_path = (dir_ / "d.sock").string();
  const std::string state_dir = (dir_ / "state").string();
  const std::vector<std::uint64_t> seeds = {401, 402, 403, 404};

  // --- round 1: daemon A takes two appends, dies with the third in flight.
  const pid_t a = spawn_daemon(socket_path, state_dir);
  ASSERT_GT(a, 0);
  {
    NdjsonClient client(socket_path, daemon_retry());
    ASSERT_TRUE(client.call("open_study", "wrf").ok);
    for (std::uint64_t seq = 1; seq <= 2; ++seq) {
      const std::string label = "run" + std::to_string(seq);
      ClientResponse ack = client.call(
          "append_experiment", "wrf",
          params_json(trace_text(label, seeds[seq - 1]), label, seq));
      ASSERT_TRUE(ack.ok) << ack.error_message;
    }
    obs::JsonWriter json;
    json.begin_object();
    json.key("method").value("append_experiment");
    json.key("study").value("wrf");
    json.end_object();
    std::string line = json.str();
    line.insert(line.size() - 1,
                ",\"params\":" +
                    params_json(trace_text("run3", seeds[2]), "run3", 3));
    fire_and_forget(socket_path, line);
  }
  ASSERT_EQ(::kill(a, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(a, &status, 0), a);
  ASSERT_TRUE(WIFSIGNALED(status));

  // --- round 2: daemon B on the same state dir; retry seq 3 (applied or
  // deduped — either way exactly once), then finish the sequence.
  const pid_t b = spawn_daemon(socket_path, state_dir);
  ASSERT_GT(b, 0);
  std::string regions_recovered;
  std::string trends_recovered;
  {
    NdjsonClient client(socket_path, daemon_retry());
    for (std::uint64_t seq = 3; seq <= 4; ++seq) {
      const std::string label = "run" + std::to_string(seq);
      ClientResponse ack = client.call(
          "append_experiment", "wrf",
          params_json(trace_text(label, seeds[seq - 1]), label, seq));
      ASSERT_TRUE(ack.ok) << ack.error_message;
    }
    regions_recovered = raw_result(client, "regions", "wrf");
    trends_recovered = raw_result(client, "trends", "wrf");
    ClientResponse bye = client.call("shutdown");
    EXPECT_TRUE(bye.ok) << bye.error_message;
  }
  ASSERT_EQ(::waitpid(b, &status, 0), b);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  // --- reference: the same study on a daemon-configured service that
  // never crashed. perftrackd defaults mirrored from service_config().
  ServiceConfig reference_config;
  reference_config.session.clustering = sim::default_clustering();
  reference_config.session.clustering.dbscan.eps = 0.025;
  reference_config.session.clustering.dbscan.min_pts = 5;
  reference_config.session.clustering.min_cluster_time_fraction = 0.005;
  TrackingService reference(reference_config);
  ok(reference, req("open_study", "wrf"));
  for (std::uint64_t seq = 1; seq <= 4; ++seq)
    ok(reference, append_req("wrf", "run" + std::to_string(seq),
                             seeds[seq - 1]));

  EXPECT_EQ(regions_recovered,
            reference.handle(req("regions", "wrf")).result_json)
      << "recovered daemon diverged from the never-crashed reference";
  EXPECT_EQ(trends_recovered,
            reference.handle(req("trends", "wrf")).result_json);
}

}  // namespace
}  // namespace perftrack::serve
