#include "serve/shard.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/telemetry.hpp"
#include "serve/client.hpp"
#include "store/serialize.hpp"

namespace perftrack::serve {

namespace {

/// Wire names of every method a worker serves, sorted — must track the
/// service's endpoint table (tests/serve/test_shard.cpp pins the lists
/// against each other).
const char* const kMethods[] = {
    "append_experiment", "append_gap", "close_study", "coverage",
    "evict",             "health",     "hello",       "list_studies",
    "metrics",           "open_study", "ping",        "regions",
    "report",            "retrack",    "shutdown",    "stats",
    "sweep",             "trends",
};

std::uint64_t u64_field(const obs::JsonValue& object, const char* name) {
  if (!object.has(name)) return 0;
  const obs::JsonValue& value = object.at(name);
  return value.is_number() ? static_cast<std::uint64_t>(value.number) : 0;
}

bool bool_field(const obs::JsonValue& object, const char* name) {
  return object.has(name) &&
         object.at(name).type == obs::JsonValue::Type::Bool &&
         object.at(name).boolean;
}

const obs::JsonValue* object_field(const obs::JsonValue& object,
                                   const char* name) {
  if (!object.has(name)) return nullptr;
  const obs::JsonValue& value = object.at(name);
  return value.is_object() ? &value : nullptr;
}

}  // namespace

ShardFront::ShardFront(std::vector<Backend> backends, bool metrics)
    : backends_(std::move(backends)),
      metrics_(metrics),
      start_ns_(obs::now_ns()) {
  if (backends_.empty())
    throw Error("ShardFront needs at least one backend shard");
}

std::size_t ShardFront::shard_of(const std::string& study,
                                 std::size_t shards) {
  return static_cast<std::size_t>(store::fnv1a64(study) % shards);
}

Response ShardFront::dispatch(const Request& request,
                              const std::string& raw_line) {
  PT_SPAN("front_request");
  const ServeMetrics::MethodMetrics* slot =
      metrics_.method_metrics(request.method);
  metrics_.count_request(slot);
  const std::uint64_t begin_ns = obs::now_ns();

  Response response = [&] {
    try {
      // Study-addressed requests go to the study's shard verbatim — the
      // worker renders (and the client receives) exactly the bytes a
      // single daemon would produce.
      if (!request.study.empty())
        return forward(shard_of(request.study, backends_.size()), raw_line);
      const std::string& m = request.method;
      if (m == "ping") return make_result(request, ping_body());
      if (m == "hello") return make_result(request, hello_body());
      if (m == "list_studies")
        return make_result(request, merged_list_studies());
      if (m == "stats") return make_result(request, merged_stats());
      if (m == "metrics") return make_result(request, merged_metrics(request));
      if (m == "health") return make_result(request, merged_health());
      if (m == "sweep") return make_result(request, merged_sweep());
      if (m == "shutdown") return make_result(request, merged_shutdown());
      // Unknown methods and study-less study methods: let shard 0 answer,
      // so the typed error (closed enum, exact message) matches a single
      // daemon's byte for byte.
      return forward(0, raw_line);
    } catch (const ServeError& error) {
      metrics_.count_error(error_code_name(error.code()));
      return make_error(request, error.code(), error.what());
    } catch (const std::exception& error) {
      metrics_.count_error(error_code_name(ErrorCode::Internal));
      return make_error(request, ErrorCode::Internal, error.what());
    }
  }();

  metrics_.record_handler_ns(slot, obs::now_ns() - begin_ns);
  return response;
}

Response ShardFront::forward(std::size_t shard, const std::string& raw_line) {
  Response response;
  try {
    response.raw = backends_[shard](raw_line);
  } catch (const Error& error) {
    throw ServeError(ErrorCode::Internal,
                     "shard " + std::to_string(shard) +
                         " unreachable: " + error.what());
  }
  return response;
}

std::vector<obs::JsonValue> ShardFront::fan_out(const std::string& line) {
  std::vector<obs::JsonValue> results;
  results.reserve(backends_.size());
  for (std::size_t shard = 0; shard < backends_.size(); ++shard) {
    std::string reply;
    try {
      reply = backends_[shard](line);
    } catch (const Error& error) {
      throw ServeError(ErrorCode::Internal,
                       "shard " + std::to_string(shard) +
                           " unreachable: " + error.what());
    }
    ClientResponse parsed = parse_client_response(reply);
    if (!parsed.ok)
      throw ServeError(ErrorCode::Internal,
                       "shard " + std::to_string(shard) + " failed: " +
                           parsed.error_code + ": " + parsed.error_message);
    results.push_back(std::move(parsed.result));
  }
  return results;
}

std::string ShardFront::ping_body() const {
  // Byte-identical to TrackingService::do_ping — the front is
  // indistinguishable from a worker to a probing client.
  obs::JsonWriter json;
  json.begin_object()
      .key("pong")
      .value(true)
      .key("proto")
      .value(kProtocolVersion)
      .end_object();
  return json.str();
}

std::string ShardFront::hello_body() const {
  obs::JsonWriter json;
  json.begin_object();
  json.key("proto").value(kProtocolVersion);
  json.key("server").value("perftrackd");
  json.key("methods").begin_array();
  for (const char* name : kMethods) json.value(name);
  json.end_array();
  json.key("capabilities").begin_array();
  json.value("sharding");
  json.end_array();
  json.end_object();
  return json.str();
}

std::string ShardFront::merged_list_studies() {
  // Shards own disjoint study sets (the routing function is total), so
  // the merge is a sorted union.
  std::set<std::string> names;
  for (const obs::JsonValue& result :
       fan_out("{\"method\":\"list_studies\"}")) {
    if (!result.has("studies") || !result.at("studies").is_array()) continue;
    for (const obs::JsonValue& name : result.at("studies").array)
      if (name.is_string()) names.insert(name.string);
  }
  obs::JsonWriter json;
  json.begin_object();
  json.key("studies").begin_array();
  for (const std::string& name : names) json.value(name);
  json.end_array();
  json.end_object();
  return json.str();
}

std::string ShardFront::merged_stats() {
  // Fleet view: occupancy and work counters sum across shards, uptime is
  // the oldest worker's, draining is sticky (front or any shard), and
  // per-method latency merges as count-sum / quantile-max (quantiles are
  // not additive over the wire; max is the conservative bound).
  const std::vector<obs::JsonValue> shards =
      fan_out("{\"method\":\"stats\"}");

  std::uint64_t studies = 0, resident = 0, appends = 0, retracks = 0;
  std::uint64_t rebuilds = 0, evictions = 0, uptime_ns = 0;
  bool draining = shutdown_requested();
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_stores = 0;
  std::uint64_t rc_hits = 0, rc_misses = 0, rc_inserts = 0;
  std::uint64_t rc_evictions = 0, rc_entries = 0;
  bool journal_enabled = false;
  std::uint64_t j_recovered = 0, j_truncated = 0, j_quarantined = 0;
  std::uint64_t j_deduped = 0, j_errors = 0;
  struct Latency {
    std::uint64_t count = 0;
    std::uint64_t p50 = 0, p99 = 0, max = 0;
  };
  std::map<std::string, Latency> latency;

  for (const obs::JsonValue& s : shards) {
    studies += u64_field(s, "studies");
    resident += u64_field(s, "resident_sessions");
    appends += u64_field(s, "appends");
    retracks += u64_field(s, "retracks");
    rebuilds += u64_field(s, "rebuilds");
    evictions += u64_field(s, "evictions");
    uptime_ns = std::max(uptime_ns, u64_field(s, "uptime_ns"));
    draining = draining || bool_field(s, "draining");
    if (const obs::JsonValue* cache = object_field(s, "cache")) {
      cache_hits += u64_field(*cache, "hits");
      cache_misses += u64_field(*cache, "misses");
      cache_stores += u64_field(*cache, "stores");
    }
    if (const obs::JsonValue* rc = object_field(s, "render_cache")) {
      rc_hits += u64_field(*rc, "hits");
      rc_misses += u64_field(*rc, "misses");
      rc_inserts += u64_field(*rc, "inserts");
      rc_evictions += u64_field(*rc, "evictions");
      rc_entries += u64_field(*rc, "entries");
    }
    if (const obs::JsonValue* j = object_field(s, "journal")) {
      journal_enabled = journal_enabled || bool_field(*j, "enabled");
      j_recovered += u64_field(*j, "recovered");
      j_truncated += u64_field(*j, "truncated");
      j_quarantined += u64_field(*j, "quarantined");
      j_deduped += u64_field(*j, "deduped");
      j_errors += u64_field(*j, "errors");
    }
    if (const obs::JsonValue* lat = object_field(s, "latency")) {
      for (const auto& [method, hist] : lat->object) {
        if (!hist.is_object()) continue;
        Latency& slot = latency[method];
        slot.count += u64_field(hist, "count");
        slot.p50 = std::max(slot.p50, u64_field(hist, "p50_ns"));
        slot.p99 = std::max(slot.p99, u64_field(hist, "p99_ns"));
        slot.max = std::max(slot.max, u64_field(hist, "max_ns"));
      }
    }
  }

  obs::JsonWriter json;
  json.begin_object();
  json.key("shards").value(static_cast<std::uint64_t>(backends_.size()));
  json.key("studies").value(studies);
  json.key("resident_sessions").value(resident);
  json.key("appends").value(appends);
  json.key("retracks").value(retracks);
  json.key("rebuilds").value(rebuilds);
  json.key("evictions").value(evictions);
  json.key("uptime_ns").value(uptime_ns);
  json.key("draining").value(draining);
  json.key("cache").begin_object();
  json.key("hits").value(cache_hits);
  json.key("misses").value(cache_misses);
  json.key("stores").value(cache_stores);
  json.end_object();
  json.key("render_cache").begin_object();
  json.key("hits").value(rc_hits);
  json.key("misses").value(rc_misses);
  json.key("inserts").value(rc_inserts);
  json.key("evictions").value(rc_evictions);
  json.key("entries").value(rc_entries);
  json.end_object();
  json.key("journal").begin_object();
  json.key("enabled").value(journal_enabled);
  json.key("recovered").value(j_recovered);
  json.key("truncated").value(j_truncated);
  json.key("quarantined").value(j_quarantined);
  json.key("deduped").value(j_deduped);
  json.key("errors").value(j_errors);
  json.end_object();
  if (queue_stats_) {
    QueueStats queue = queue_stats_();
    json.key("queue").begin_object();
    json.key("capacity").value(static_cast<std::uint64_t>(queue.capacity));
    json.key("in_flight").value(static_cast<std::uint64_t>(queue.in_flight));
    json.key("admitted").value(queue.admitted);
    json.key("rejected").value(queue.rejected);
    json.end_object();
  }
  json.key("latency").begin_object();
  for (const auto& [method, slot] : latency) {
    json.key(method).begin_object();
    json.key("count").value(slot.count);
    json.key("p50_ns").value(slot.p50);
    json.key("p99_ns").value(slot.p99);
    json.key("max_ns").value(slot.max);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  return json.str();
}

std::string ShardFront::merged_metrics(const Request& request) {
  // The JSON snapshot only carries derived quantiles, so the cross-shard
  // merge is an approximation: counters/gauges sum (uptime takes the
  // max), histogram count/sum add, min/max widen, and quantiles take the
  // per-shard max — a conservative bound, not a re-aggregation.
  // Prometheus text cannot be merged faithfully at all: scrape the
  // shards directly (each worker exposes its own /metrics).
  const obs::JsonValue* format = nullptr;
  if (request.params.is_object()) {
    auto it = request.params.object.find("format");
    if (it != request.params.object.end()) format = &it->second;
  }
  if (format != nullptr &&
      (!format->is_string() ||
       (format->string != "json" && !format->string.empty())))
    throw ServeError(ErrorCode::BadRequest,
                     "a shard front only merges format \"json\"; scrape "
                     "the shards' own /metrics for prometheus text");

  const std::vector<obs::JsonValue> shards =
      fan_out("{\"method\":\"metrics\"}");

  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, std::map<std::string, double>> histograms;
  for (const obs::JsonValue& s : shards) {
    if (const obs::JsonValue* c = object_field(s, "counters"))
      for (const auto& [name, value] : c->object)
        if (value.is_number()) counters[name] += value.number;
    if (const obs::JsonValue* g = object_field(s, "gauges"))
      for (const auto& [name, value] : g->object) {
        if (!value.is_number()) continue;
        if (name.rfind("perftrackd_uptime_seconds", 0) == 0)
          gauges[name] = std::max(gauges[name], value.number);
        else
          gauges[name] += value.number;
      }
    if (const obs::JsonValue* h = object_field(s, "histograms"))
      for (const auto& [name, hist] : h->object) {
        if (!hist.is_object()) continue;
        std::map<std::string, double>& slot = histograms[name];
        const bool fresh = slot.empty();
        for (const auto& [field, value] : hist.object) {
          if (!value.is_number()) continue;
          if (field == "count" || field == "sum")
            slot[field] += value.number;
          else if (field == "min")
            slot[field] = fresh ? value.number
                                : std::min(slot[field], value.number);
          else
            slot[field] = std::max(slot[field], value.number);
        }
      }
  }

  obs::JsonWriter json;
  json.begin_object();
  json.key("counters").begin_object();
  for (const auto& [name, value] : counters) json.key(name).value(value);
  json.end_object();
  json.key("gauges").begin_object();
  for (const auto& [name, value] : gauges) json.key(name).value(value);
  json.end_object();
  json.key("histograms").begin_object();
  for (const auto& [name, fields] : histograms) {
    json.key(name).begin_object();
    for (const auto& [field, value] : fields) json.key(field).value(value);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  return json.str();
}

std::string ShardFront::merged_health() {
  const std::vector<obs::JsonValue> shards =
      fan_out("{\"method\":\"health\"}");
  bool ok = true;
  bool draining = shutdown_requested();
  std::uint64_t uptime_ns = 0, studies = 0;
  for (const obs::JsonValue& s : shards) {
    ok = ok && bool_field(s, "ok");
    draining = draining || bool_field(s, "draining");
    uptime_ns = std::max(uptime_ns, u64_field(s, "uptime_ns"));
    studies += u64_field(s, "studies");
  }
  obs::JsonWriter json;
  json.begin_object();
  json.key("ok").value(ok);
  json.key("draining").value(draining);
  json.key("uptime_ns").value(uptime_ns);
  json.key("studies").value(studies);
  json.end_object();
  return json.str();
}

std::string ShardFront::merged_sweep() {
  std::uint64_t evicted = 0;
  for (const obs::JsonValue& s : fan_out("{\"method\":\"sweep\"}"))
    evicted += u64_field(s, "evicted");
  obs::JsonWriter json;
  json.begin_object().key("evicted").value(evicted).end_object();
  return json.str();
}

std::string ShardFront::merged_shutdown() {
  // Best-effort: a worker that already died must not keep the fleet up —
  // drain every reachable shard, then drain the front regardless.
  for (std::size_t shard = 0; shard < backends_.size(); ++shard) {
    try {
      backends_[shard]("{\"method\":\"shutdown\"}");
    } catch (const Error& error) {
      PT_LOG(Warn) << "front: shutdown of shard " << shard
                   << " failed: " << error.what();
    }
  }
  shutdown_.store(true, std::memory_order_release);
  PT_LOG(Info) << "front: shutdown requested, draining "
               << backends_.size() << " shards";
  obs::JsonWriter json;
  json.begin_object().key("draining").value(true).end_object();
  return json.str();
}

}  // namespace perftrack::serve
