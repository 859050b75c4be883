#include "bench/served.hpp"

#include <filesystem>

#include "common/error.hpp"

namespace perfbench {

namespace pt = perftrack;
using pt::obs::JsonValue;
using pt::obs::JsonWriter;

namespace {

constexpr std::uint64_t kStartTimeoutMs = 20000;
constexpr std::uint64_t kStopTimeoutMs = 30000;
// One attempt, and a receive deadline well inside the benchmark's own time
// limit: a hung daemon fails the run instead of stalling it.
constexpr pt::serve::RetryPolicy kClientPolicy{.attempts = 1,
                                               .deadline_ms = 60000};

Request make_request(std::uint64_t id, const std::string& method,
                     const std::string& study,
                     const std::string& params_json) {
  JsonWriter json;
  json.begin_object();
  json.key("id").value(id);
  json.key("method").value(method);
  json.key("study").value(study);
  json.end_object();
  std::string line = json.str();
  line.pop_back();  // reopen the object for the params
  if (!params_json.empty()) line += ",\"params\":" + params_json;
  line += "}";
  return {std::move(line),
          "{\"id\":" + std::to_string(id) + ",\"ok\":true,"};
}

double histogram_mean_delta(const DaemonSnapshot& before,
                            const DaemonSnapshot& after,
                            const std::string& key) {
  auto field = [&](const DaemonSnapshot& s, const char* name) {
    return s.histograms.has(key) ? s.histograms.at(key).at(name).number : 0.0;
  };
  const double count = field(after, "count") - field(before, "count");
  return count > 0 ? (field(after, "sum") - field(before, "sum")) / count
                   : 0.0;
}

}  // namespace

const char* shape_span(std::size_t shape) {
  switch (shape) {
    case kRegions: return "serve.regions";
    case kTrendsIpc:
    case kTrendsInstructions: return "serve.trends";
    case kCoverage: return "serve.coverage";
    case kStats: return "serve.stats";
    default: return "serve.report";
  }
}

std::vector<StudyRequests> render_requests(const Corpus& corpus) {
  std::vector<StudyRequests> out;
  for (std::size_t s = 0; s < corpus.studies.size(); ++s) {
    const CorpusStudy& study = corpus.studies[s];
    if (study.texts.size() != study.paths.size())
      throw pt::Error("render_requests needs the corpus texts");
    std::uint64_t id = (s + 1) * 1000;
    StudyRequests requests;

    JsonWriter open;
    open.begin_object()
        .key("eps").value(study.clustering.dbscan.eps)
        .key("min_pts")
        .value(static_cast<std::uint64_t>(study.clustering.dbscan.min_pts))
        .key("min_cluster_frac")
        .value(study.clustering.min_cluster_time_fraction)
        .end_object();
    requests.open = make_request(++id, "open_study", study.name, open.str());
    requests.close = make_request(++id, "close_study", study.name, "");
    for (std::size_t k = 0; k < study.texts.size(); ++k) {
      JsonWriter params;
      params.begin_object()
          .key("trace").value(study.texts[k])
          .key("seq").value(static_cast<std::uint64_t>(k + 1))
          .end_object();
      requests.appends.push_back(
          make_request(++id, "append_experiment", study.name, params.str()));
    }
    requests.reads[kRegions] = make_request(++id, "regions", study.name, "");
    requests.reads[kTrendsIpc] =
        make_request(++id, "trends", study.name, R"({"metric":"IPC"})");
    requests.reads[kTrendsInstructions] = make_request(
        ++id, "trends", study.name, R"({"metric":"Instructions"})");
    requests.reads[kCoverage] = make_request(++id, "coverage", study.name, "");
    requests.reads[kStats] = make_request(++id, "stats", study.name, "");
    requests.reads[kReport] = make_request(++id, "report", study.name, "");
    out.push_back(std::move(requests));
  }
  return out;
}

Server start_server(const Options& options, const std::string& dir,
                    const std::string& state_dir, bool profile) {
  std::filesystem::create_directories(dir);
  Server server;
  server.dir = dir;
  std::vector<std::string> args = {"--socket",    server.socket(),
                                   "--state-dir", state_dir,
                                   "--no-cache"};
  if (profile) {
    args.push_back("--profile");
    args.push_back(server.profile_path());
  }
  const std::int64_t start = now_ns();
  server.daemon = std::make_unique<Daemon>(options.daemon, std::move(args),
                                           dir + "/daemon.log");
  server.control = server.daemon->connect(server.socket(), kStartTimeoutMs);
  server.start_ms = static_cast<double>(now_ns() - start) / 1e6;
  return server;
}

bool stop_server(Server& server) {
  return server.daemon->shutdown(*server.control, kStopTimeoutMs);
}

std::unique_ptr<pt::serve::NdjsonClient> open_client(const Server& server) {
  return std::make_unique<pt::serve::NdjsonClient>(server.socket(),
                                                   kClientPolicy);
}

DaemonSnapshot snapshot(Server& server) {
  DaemonSnapshot out;
  const pt::serve::ClientResponse metrics = server.control->call("metrics");
  const pt::serve::ClientResponse stats = server.control->call("stats");
  if (!metrics.ok || !stats.ok)
    throw pt::Error("perftrackd metrics/stats failed: " +
                    metrics.error_message + stats.error_message);
  out.histograms = metrics.result.at("histograms");
  out.render_cache = stats.result.at("render_cache");
  out.proc = sample_process(server.daemon->pid());
  return out;
}

void report_daemon_layers(Results& results, const DaemonSnapshot& before,
                          const DaemonSnapshot& after, double ops) {
  for (const char* phase : {"parse", "queue_wait", "lock_wait", "write"})
    add_layer(results, std::string("serve.phase.") + phase + "_us",
              histogram_mean_delta(
                  before, after,
                  std::string("perftrackd_phase_ns{phase=\"") + phase +
                      "\"}") /
                  1e3);
  for (const char* method : {"append_experiment", "regions"})
    add_layer(results, std::string("serve.handler.") + method + "_ms",
              histogram_mean_delta(
                  before, after,
                  std::string("perftrackd_handler_ns{method=\"") + method +
                      "\"}") /
                  1e6);
  add_layer(results, "serve.cpu_ms_per_op",
            ops > 0 ? (after.proc.cpu_ms - before.proc.cpu_ms) / ops : 0.0);
  auto cache = [](const DaemonSnapshot& s, const char* name) {
    return s.render_cache.at(name).number;
  };
  const double hits = cache(after, "hits") - cache(before, "hits");
  const double misses = cache(after, "misses") - cache(before, "misses");
  add_layer(results, "serve.render_cache_hit_ratio",
            hits + misses > 0 ? hits / (hits + misses) : 0.0);
  add_layer(results, "serve.render_cache_entries", cache(after, "entries"));
  add_layer(results, "serve.daemon_threads",
            static_cast<double>(after.proc.threads));
}

void report_daemon_tracking(Results& results, const ProgramProfile& profile,
                            double ops) {
  add_layer(results, "tracking.retrack_ms",
            profile.stage_ms("session_retrack") / ops);
  add_layer(results, "tracking.render_ms",
            (profile.stage_ms("report_describe") +
             profile.stage_ms("report_trend_table") +
             profile.stage_ms("report_trends_csv")) /
                ops);
  report_program_layers(results, profile, ops);
}

std::string result_field(const std::string& line, const std::string& field) {
  try {
    const pt::serve::ClientResponse response =
        pt::serve::parse_client_response(line);
    if (!response.ok || !response.result.has(field)) return "";
    return response.result.at(field).string;
  } catch (const pt::Error&) {
    return "";
  }
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec))
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  return bytes;
}

}  // namespace perfbench
