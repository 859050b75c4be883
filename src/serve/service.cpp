#include "serve/service.hpp"

#include <cmath>
#include <mutex>
#include <optional>
#include <shared_mutex>

#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "obs/telemetry.hpp"
#include "trace/metrics.hpp"
#include "trace/trace_io.hpp"
#include "tracking/html_report.hpp"
#include "tracking/report.hpp"
#include "tracking/trends.hpp"

namespace perftrack::serve {

namespace {

/// Typed access to optional request parameters.
const obs::JsonValue* find_param(const Request& request, const char* name) {
  if (!request.params.is_object()) return nullptr;
  auto it = request.params.object.find(name);
  return it == request.params.object.end() ? nullptr : &it->second;
}

/// The string parameter `name`, by reference into the request (an inline
/// trace is megabytes); empty when absent and not `required`.
const std::string& param_string(const Request& request, const char* name,
                                bool required = false) {
  static const std::string kAbsent;
  const obs::JsonValue* value = find_param(request, name);
  if (value == nullptr) {
    if (required)
      throw ServeError(ErrorCode::BadRequest,
                       std::string("missing required parameter \"") + name +
                           "\"");
    return kAbsent;
  }
  if (!value->is_string())
    throw ServeError(ErrorCode::BadRequest,
                     std::string("parameter \"") + name +
                         "\" must be a string");
  return value->string;
}

double param_number(const Request& request, const char* name,
                    double fallback) {
  const obs::JsonValue* value = find_param(request, name);
  if (value == nullptr) return fallback;
  if (!value->is_number())
    throw ServeError(ErrorCode::BadRequest,
                     std::string("parameter \"") + name +
                         "\" must be a number");
  return value->number;
}

bool param_bool(const Request& request, const char* name, bool fallback) {
  const obs::JsonValue* value = find_param(request, name);
  if (value == nullptr) return fallback;
  if (value->type != obs::JsonValue::Type::Bool)
    throw ServeError(ErrorCode::BadRequest,
                     std::string("parameter \"") + name +
                         "\" must be a boolean");
  return value->boolean;
}

/// Idempotency sequence number for appends: absent = 0 = none; otherwise
/// a positive integer (IEEE doubles carry integers exactly to 2^53).
std::uint64_t param_seq(const Request& request) {
  const obs::JsonValue* value = find_param(request, "seq");
  if (value == nullptr) return 0;
  if (!value->is_number() || value->number < 1.0 ||
      value->number != std::floor(value->number) ||
      value->number > 9007199254740992.0)
    throw ServeError(ErrorCode::BadRequest,
                     "parameter \"seq\" must be a positive integer");
  return static_cast<std::uint64_t>(value->number);
}

/// Acknowledge an append whose seq was already applied — exactly-once
/// under client retries. Served from the log alone: a replay must not
/// force a session rebuild of an evicted study.
std::string deduped_response(const StudyState& study, std::uint64_t seq) {
  std::uint64_t gaps = 0;
  std::optional<std::size_t> slot;
  for (std::size_t i = 0; i < study.log.size(); ++i) {
    if (study.log[i].kind == AppendEntry::Kind::Gap) ++gaps;
    if (study.log[i].seq == seq) slot = i;
  }
  obs::JsonWriter json;
  json.begin_object();
  json.key("deduped").value(true);
  if (slot.has_value())
    json.key("slot").value(static_cast<std::uint64_t>(*slot));
  json.key("experiments")
      .value(static_cast<std::uint64_t>(study.log.size()));
  json.key("gaps").value(gaps);
  json.end_object();
  return json.str();
}

void touch(StudyState& study) {
  study.last_used_ns.store(obs::now_ns(), std::memory_order_relaxed);
}

/// Acquire a deferred lock, recording the wait into the lock_wait phase
/// histogram and the current request's context (for the access log).
template <typename Lock>
void acquire_timed(Lock& lock, ServeMetrics& metrics) {
  const std::uint64_t begin_ns = obs::now_ns();
  lock.lock();
  metrics.record_lock_wait_ns(obs::now_ns() - begin_ns);
}

/// Summary numbers every read endpoint shares.
void write_result_summary(obs::JsonWriter& json,
                          const tracking::TrackingResult& result) {
  json.key("frames").value(static_cast<std::uint64_t>(result.frames.size()));
  json.key("experiments")
      .value(static_cast<std::uint64_t>(result.sequence_length()));
  json.key("gaps").value(static_cast<std::uint64_t>(result.gaps.size()));
  json.key("regions")
      .value(static_cast<std::uint64_t>(result.regions.size()));
  json.key("complete")
      .value(static_cast<std::uint64_t>(result.complete_count));
  json.key("coverage").value(result.coverage);
  json.key("effective_coverage").value(result.effective_coverage());
}

}  // namespace

TrackingService::TrackingService(ServiceConfig config)
    : config_(std::move(config)),
      metrics_(config_.metrics),
      render_cache_(config_.render_cache_capacity),
      start_ns_(obs::now_ns()) {
  config_.session.validate_or_throw();
  // Dispatch table: method name -> handler + the static span literal that
  // gives the endpoint its latency/throughput slot in the run report +
  // the pre-resolved metrics handle (no string hashing per request).
  const struct {
    const char* method;
    const char* span;
    std::string (TrackingService::*fn)(const Request&);
  } kTable[] = {
      {"ping", "serve_ping", &TrackingService::do_ping},
      {"hello", "serve_hello", &TrackingService::do_hello},
      {"open_study", "serve_open_study", &TrackingService::do_open_study},
      {"close_study", "serve_close_study", &TrackingService::do_close_study},
      {"list_studies", "serve_list_studies",
       &TrackingService::do_list_studies},
      {"append_experiment", "serve_append_experiment",
       &TrackingService::do_append_experiment},
      {"append_gap", "serve_append_gap", &TrackingService::do_append_gap},
      {"retrack", "serve_retrack", &TrackingService::do_retrack},
      {"regions", "serve_regions", &TrackingService::do_regions},
      {"trends", "serve_trends", &TrackingService::do_trends},
      {"report", "serve_report", &TrackingService::do_report},
      {"coverage", "serve_coverage", &TrackingService::do_coverage},
      {"stats", "serve_stats", &TrackingService::do_stats},
      {"metrics", "serve_metrics", &TrackingService::do_metrics},
      {"health", "serve_health", &TrackingService::do_health},
      {"evict", "serve_evict", &TrackingService::do_evict},
      {"sweep", "serve_sweep", &TrackingService::do_sweep},
      {"shutdown", "serve_shutdown", &TrackingService::do_shutdown},
  };
  for (const auto& row : kTable)
    endpoints_.emplace(row.method,
                       Endpoint{row.span, row.fn,
                                metrics_.method_metrics(row.method)});
  if (durable()) recover_state();
}

/// Wire names of every supported method, for the `hello` handshake.
std::vector<std::string> TrackingService::method_names() const {
  std::vector<std::string> out;
  out.reserve(endpoints_.size());
  for (const auto& [name, endpoint] : endpoints_) out.push_back(name);
  return out;
}

void TrackingService::recover_state() {
  RecoveryReport report = recover_state_dir(config_.journal, config_.session);
  journal_truncated_ += report.truncated;
  journal_quarantined_ += report.quarantined;
  journal_deduped_ += report.deduped;
  for (RecoveredStudy& rec : report.studies) {
    const std::vector<std::string> problems = rec.config.validate();
    if (!problems.empty()) {
      ++journal_errors_;
      std::string what;
      for (const std::string& p : problems) what += " " + p + ";";
      PT_LOG(Warn) << "journal: recovered study '" << rec.name
                   << "' has an invalid configuration, skipping:" << what;
      continue;
    }
    std::shared_ptr<StudyState> study;
    try {
      study = registry_.create(rec.name, rec.config);
    } catch (const ServeError&) {
      continue;  // recover_state_dir quarantines duplicates; belt+braces
    }
    std::unique_lock lock(study->mutex);
    study->log = std::move(rec.entries);
    study->last_seq = rec.last_seq;
    study->appends = study->log.size();
    // Any monotone starting point works — the fresh instance_id already
    // separates this incarnation's cache keys from any predecessor's.
    study->generation.store(study->log.size(), std::memory_order_release);
    try {
      study->journal = Journal::attach(config_.journal, rec.name,
                                       rec.records, rec.bytes);
    } catch (const Error& error) {
      ++journal_errors_;
      PT_LOG(Warn) << "journal: cannot reopen journal of study '" << rec.name
                   << "': " << error.what()
                   << " — study recovered but further appends are not "
                   << "journaled";
    }
    touch(*study);
    ++journal_recovered_;
  }
  if (journal_recovered_ > 0 || report.truncated > 0 ||
      report.quarantined > 0 || report.tombstones > 0)
    PT_LOG(Info) << "journal: recovery of " << config_.journal.directory
                 << ": " << journal_recovered_.load() << " studies restored, "
                 << report.truncated << " truncated, " << report.quarantined
                 << " quarantined, " << report.tombstones
                 << " closes completed";
}

void TrackingService::journal_append(StudyState& study,
                                     const AppendEntry& entry) {
  if (study.journal == nullptr) return;
  try {
    study.journal->append(entry);
  } catch (const Error& error) {
    ++journal_errors_;
    throw ServeError(ErrorCode::IoFailure,
                     std::string("journal append failed: ") + error.what() +
                         " (the append was not applied; retrying with the "
                         "same seq is safe)");
  }
}

void TrackingService::maybe_compact(const std::string& name,
                                    StudyState& study) {
  if (study.journal == nullptr || !study.journal->should_compact()) return;
  try {
    study.journal->compact(name, study.config, study.log);
  } catch (const Error& error) {
    // The uncompacted journal is still complete and correct; compaction
    // retries after the next threshold's worth of appends.
    ++journal_errors_;
    PT_LOG(Warn) << "journal: compaction failed for study '" << name
                 << "': " << error.what();
  }
}

void TrackingService::flush_journals() {
  if (!durable()) return;
  for (const std::string& name : registry_.names()) {
    std::shared_ptr<StudyState> study;
    try {
      study = registry_.get(name);
    } catch (const ServeError&) {
      continue;
    }
    std::unique_lock lock(study->mutex);
    if (study->journal == nullptr) continue;
    try {
      study->journal->sync();
    } catch (const Error& error) {
      ++journal_errors_;
      PT_LOG(Warn) << "journal: drain flush failed for study '" << name
                   << "': " << error.what();
    }
  }
}

Response TrackingService::handle_line(const std::string& line) {
  try {
    return handle(parse_request(line));
  } catch (const ServeError& error) {
    metrics_.count_error(error_code_name(error.code()));
    return make_error(Request{}, error.code(), error.what());
  }
}

Response TrackingService::handle(const Request& request) {
  PT_SPAN("serve_request");

  // One endpoints_ find resolves the handler, its span literal, and its
  // metrics handle together — the per-request hot path does no string
  // hashing at all (the handles were bound in the constructor).
  auto it = endpoints_.find(request.method);
  const ServeMetrics::MethodMetrics* slot =
      it != endpoints_.end() ? it->second.metrics
                             : metrics_.method_metrics(request.method);

  // Live-metrics side: the lock-wait context is per handle() call, and
  // the handler histogram times everything below (dispatch included), so
  // direct callers — tests, benches — fill the same histograms the
  // daemon does.
  ServeMetrics::reset_request_context();
  metrics_.count_request(slot);
  const std::uint64_t handler_begin_ns = obs::now_ns();

  Response response = [&] {
    try {
      if (it == endpoints_.end())
        throw ServeError(ErrorCode::UnknownMethod,
                         "unknown method '" + request.method + "'");
      PT_SPAN(it->second.span);
      return make_result(request, (this->*(it->second.fn))(request));
    } catch (const ServeError& error) {
      metrics_.count_error(error_code_name(error.code()));
      return make_error(request, error.code(), error.what());
    } catch (const ParseError& error) {
      metrics_.count_error(error_code_name(ErrorCode::ParseFailure));
      return make_error(request, ErrorCode::ParseFailure, error.what());
    } catch (const IoError& error) {
      metrics_.count_error(error_code_name(ErrorCode::IoFailure));
      return make_error(request, ErrorCode::IoFailure, error.what());
    } catch (const std::exception& error) {
      metrics_.count_error(error_code_name(ErrorCode::Internal));
      return make_error(request, ErrorCode::Internal, error.what());
    }
  }();

  metrics_.record_handler_ns(slot, obs::now_ns() - handler_begin_ns);
  return response;
}

std::shared_ptr<StudyState> TrackingService::study_of(
    const Request& request) const {
  if (request.study.empty())
    throw ServeError(ErrorCode::BadRequest,
                     "method '" + request.method +
                         "' needs a \"study\" field");
  return registry_.get(request.study);
}

std::shared_ptr<const tracking::TrackingResult> TrackingService::tracked_result(
    StudyState& study, std::uint64_t* generation) {
  {
    std::shared_lock lock(study.mutex, std::defer_lock);
    acquire_timed(lock, metrics_);
    touch(study);
    if (study.tracked()) {
      if (generation != nullptr)
        *generation = study.generation.load(std::memory_order_acquire);
      return study.result;
    }
  }
  // Stale (or never tracked): upgrade and retrack. Another writer may get
  // there first — re-check under the exclusive lock; a double retrack
  // would be wasted work, not a correctness problem.
  std::unique_lock lock(study.mutex, std::defer_lock);
  acquire_timed(lock, metrics_);
  if (!study.tracked()) retrack_locked(study);
  if (generation != nullptr)
    *generation = study.generation.load(std::memory_order_acquire);
  return study.result;
}

std::string TrackingService::cached_render(
    StudyState& study, const std::string& name, const std::string& shape,
    const std::function<std::string(const tracking::TrackingResult&)>&
        render) {
  // Fast path: a cache entry keyed by the generation we observe now is
  // current — generation only moves forward, and any append that made it
  // move rewrote what a read would render. The lock-free read here may
  // race an in-flight append; that is fine either way: an older
  // generation misses (we render fresh below), a newer one was stored by
  // a reader that already saw the append applied.
  const std::uint64_t observed =
      study.generation.load(std::memory_order_acquire);
  const std::string key =
      RenderCache::key(name, study.instance_id, observed, shape);
  if (auto hit = render_cache_.get(key)) {
    touch(study);
    return *hit;
  }
  // Miss: take the read path (shared lock, retrack if stale) and record
  // the generation the result actually corresponds to — it may be newer
  // than `observed` if an append landed in between, and the bytes must
  // be stored under the generation they were rendered from.
  std::uint64_t generation = 0;
  auto result = tracked_result(study, &generation);
  auto body = std::make_shared<const std::string>(render(*result));
  render_cache_.put(
      RenderCache::key(name, study.instance_id, generation, shape), body);
  return *body;
}

void TrackingService::retrack_locked(StudyState& study) {
  if (study.log.size() < 2)
    throw ServeError(ErrorCode::BadRequest,
                     "study has " + std::to_string(study.log.size()) +
                         " experiment(s); tracking needs at least two "
                         "appends before retrack/reads");
  ensure_session(study);
  try {
    study.result = std::make_shared<const tracking::TrackingResult>(
        study.session->retrack());
  } catch (const Error& error) {
    throw ServeError(ErrorCode::TrackingFailed, error.what());
  }
  study.tracked_slots = study.log.size();
  ++study.retracks;
}

std::string TrackingService::do_ping(const Request&) {
  obs::JsonWriter json;
  json.begin_object()
      .key("pong")
      .value(true)
      .key("proto")
      .value(kProtocolVersion)
      .end_object();
  return json.str();
}

std::string TrackingService::do_hello(const Request&) {
  obs::JsonWriter json;
  json.begin_object();
  json.key("proto").value(kProtocolVersion);
  json.key("server").value("perftrackd");
  json.key("methods").begin_array();
  for (const std::string& name : method_names()) json.value(name);
  json.end_array();
  json.key("capabilities").begin_array();
  json.value("render_cache");
  if (durable()) json.value("journal");
  json.end_array();
  json.end_object();
  return json.str();
}

std::string TrackingService::do_open_study(const Request& request) {
  if (request.study.empty())
    throw ServeError(ErrorCode::BadRequest,
                     "open_study needs a \"study\" field");

  tracking::SessionConfig config = config_.session;
  config.clustering.dbscan.eps =
      param_number(request, "eps", config.clustering.dbscan.eps);
  double min_pts = param_number(
      request, "min_pts",
      static_cast<double>(config.clustering.dbscan.min_pts));
  if (min_pts < 0)
    throw ServeError(ErrorCode::BadRequest,
                     "parameter \"min_pts\" must be non-negative");
  config.clustering.dbscan.min_pts = static_cast<std::size_t>(min_pts);
  config.clustering.min_cluster_time_fraction =
      param_number(request, "min_cluster_frac",
                   config.clustering.min_cluster_time_fraction);
  config.resilience.lenient =
      param_bool(request, "lenient", config.resilience.lenient);
  config.resilience.max_gap_fraction = param_number(
      request, "max_gap_fraction", config.resilience.max_gap_fraction);

  std::vector<std::string> problems = config.validate();
  if (!problems.empty()) {
    std::string what = "invalid study configuration:";
    for (const std::string& p : problems) what += " " + p + ";";
    what.pop_back();
    throw ServeError(ErrorCode::InvalidConfig, what);
  }

  auto study = registry_.create(request.study, std::move(config));
  touch(*study);
  if (durable()) {
    std::unique_lock lock(study->mutex);
    try {
      study->journal =
          Journal::create(config_.journal, request.study, study->config);
    } catch (const Error& error) {
      // No journal, no study: an open that cannot be made durable must
      // not silently produce a study that vanishes on restart.
      lock.unlock();
      try {
        registry_.remove(request.study);
      } catch (const ServeError&) {
      }
      ++journal_errors_;
      throw ServeError(ErrorCode::IoFailure,
                       "cannot create journal for study '" + request.study +
                           "': " + error.what());
    }
  }
  PT_LOG(Info) << "serve: opened study '" << request.study << "'";

  obs::JsonWriter json;
  json.begin_object();
  json.key("study").value(request.study);
  json.key("lenient").value(study->config.resilience.lenient);
  json.end_object();
  return json.str();
}

std::string TrackingService::do_close_study(const Request& request) {
  if (request.study.empty())
    throw ServeError(ErrorCode::BadRequest,
                     "close_study needs a \"study\" field");
  auto study = registry_.get(request.study);
  {
    // Tombstone before the in-memory remove: if the tombstone cannot be
    // made durable the study stays open (and journaled) rather than
    // resurrecting on the next boot.
    std::unique_lock lock(study->mutex, std::defer_lock);
    acquire_timed(lock, metrics_);
    if (study->journal != nullptr) {
      try {
        study->journal->remove_and_unlink();
      } catch (const Error& error) {
        ++journal_errors_;
        throw ServeError(ErrorCode::IoFailure,
                         "cannot tombstone journal of study '" +
                             request.study + "': " + error.what() +
                             " (study stays open)");
      }
      study->journal.reset();
    }
  }
  registry_.remove(request.study);
  PT_LOG(Info) << "serve: closed study '" << request.study << "'";
  obs::JsonWriter json;
  json.begin_object().key("closed").value(request.study).end_object();
  return json.str();
}

std::string TrackingService::do_list_studies(const Request&) {
  obs::JsonWriter json;
  json.begin_object();
  json.key("studies").begin_array();
  for (const std::string& name : registry_.names()) json.value(name);
  json.end_array();
  json.end_object();
  return json.str();
}

std::string TrackingService::do_append_experiment(const Request& request) {
  auto study = study_of(request);
  const std::string path = param_string(request, "path");
  const std::string& inline_text = param_string(request, "trace");
  std::string label = param_string(request, "label");
  if (path.empty() == inline_text.empty())
    throw ServeError(ErrorCode::BadRequest,
                     "append_experiment needs exactly one of \"path\" or "
                     "\"trace\"");
  const std::uint64_t seq = param_seq(request);

  std::unique_lock lock(study->mutex, std::defer_lock);
  acquire_timed(lock, metrics_);
  touch(*study);
  if (seq != 0 && seq <= study->last_seq) {
    ++journal_deduped_;
    PT_COUNTER("serve_deduped", 1.0);
    return deduped_response(*study, seq);
  }
  ensure_session(*study);

  const bool lenient = study->config.resilience.lenient;
  Diagnostics diags =
      lenient ? Diagnostics::lenient(ErrorBudget{config_.max_errors})
              : Diagnostics::strict();

  ThreadPool& pool =
      ThreadPool::shared(ThreadPool::resolve(study->config.tracking.threads));
  std::shared_ptr<const trace::Trace> trace;
  std::string failure;
  try {
    if (!path.empty()) {
      trace = std::make_shared<const trace::Trace>(
          trace::load_trace(path, diags, pool));
      if (label.empty()) label = path;
    } else {
      if (label.empty()) label = "<inline>";
      diags.set_file(label);
      trace = std::make_shared<const trace::Trace>(
          trace::read_trace(std::string_view(inline_text), diags, pool));
    }
  } catch (const Error& error) {
    // Strict mode propagates (typed parse-failure / io-failure response,
    // study untouched); lenient mode records the slot as a gap, exactly
    // like `perftrack track --lenient` does for an unreadable file.
    if (!lenient) throw;
    failure = error.what();
  }

  // Build the log entry (a parse failure in lenient mode becomes a gap
  // entry, like a fresh failing append), journal it, and only then apply
  // it in memory: any state a reader can observe is recoverable.
  AppendEntry entry;
  if (trace != nullptr) {
    entry.kind = path.empty() ? AppendEntry::Kind::Inline
                              : AppendEntry::Kind::Path;
    entry.label = path.empty() ? label : path;
    entry.detail = inline_text;
  } else {
    entry.kind = AppendEntry::Kind::Gap;
    entry.label = label.empty() ? path : label;
    entry.detail = failure;
  }
  entry.seq = seq;
  journal_append(*study, entry);

  std::size_t slot;
  if (trace != nullptr)
    slot = study->session->append_experiment(trace);
  else
    slot = study->session->append_gap(entry.label, failure);
  study->log.push_back(std::move(entry));
  study->generation.fetch_add(1, std::memory_order_acq_rel);
  if (seq != 0) study->last_seq = seq;
  ++study->appends;
  maybe_compact(request.study, *study);

  obs::JsonWriter json;
  json.begin_object();
  json.key("slot").value(static_cast<std::uint64_t>(slot));
  json.key("experiments")
      .value(static_cast<std::uint64_t>(study->session->experiment_count()));
  json.key("gaps")
      .value(static_cast<std::uint64_t>(study->session->gap_count()));
  json.key("degraded").value(trace == nullptr);
  if (!failure.empty()) json.key("gap_reason").value(failure);
  json.key("diagnostics").begin_object();
  json.key("errors")
      .value(static_cast<std::uint64_t>(diags.error_count()));
  json.key("warnings")
      .value(static_cast<std::uint64_t>(diags.warning_count()));
  json.end_object();
  json.end_object();
  return json.str();
}

std::string TrackingService::do_append_gap(const Request& request) {
  auto study = study_of(request);
  const std::string label = param_string(request, "label", true);
  const std::string reason = param_string(request, "reason");
  const std::uint64_t seq = param_seq(request);

  std::unique_lock lock(study->mutex, std::defer_lock);
  acquire_timed(lock, metrics_);
  touch(*study);
  if (seq != 0 && seq <= study->last_seq) {
    ++journal_deduped_;
    PT_COUNTER("serve_deduped", 1.0);
    return deduped_response(*study, seq);
  }
  ensure_session(*study);
  AppendEntry entry{AppendEntry::Kind::Gap, label, reason, seq};
  journal_append(*study, entry);
  std::size_t slot = study->session->append_gap(label, reason);
  study->log.push_back(std::move(entry));
  study->generation.fetch_add(1, std::memory_order_acq_rel);
  if (seq != 0) study->last_seq = seq;
  ++study->appends;
  maybe_compact(request.study, *study);

  obs::JsonWriter json;
  json.begin_object();
  json.key("slot").value(static_cast<std::uint64_t>(slot));
  json.key("experiments")
      .value(static_cast<std::uint64_t>(study->session->experiment_count()));
  json.end_object();
  return json.str();
}

std::string TrackingService::do_retrack(const Request& request) {
  auto study = study_of(request);
  std::unique_lock lock(study->mutex, std::defer_lock);
  acquire_timed(lock, metrics_);
  touch(*study);
  retrack_locked(*study);

  obs::JsonWriter json;
  json.begin_object();
  write_result_summary(json, *study->result);
  json.end_object();
  return json.str();
}

std::string TrackingService::do_regions(const Request& request) {
  auto study = study_of(request);
  return cached_render(
      *study, request.study, "regions",
      [](const tracking::TrackingResult& result) {
        obs::JsonWriter json;
        json.begin_object();
        write_result_summary(json, result);
        json.key("text").value(tracking::describe_tracking(result));
        json.end_object();
        return json.str();
      });
}

std::string TrackingService::do_trends(const Request& request) {
  auto study = study_of(request);
  std::string metric_name = param_string(request, "metric");
  trace::Metric metric = trace::Metric::Ipc;
  if (!metric_name.empty()) {
    try {
      metric = trace::metric_from_name(metric_name);
    } catch (const Error& error) {
      throw ServeError(ErrorCode::BadRequest, error.what());
    }
  }
  // The resolved metric is part of the request shape: trends over ipc and
  // trends over l2_miss_rate are distinct cached responses.
  return cached_render(
      *study, request.study,
      std::string("trends:") + std::string(trace::metric_name(metric)),
      [metric](const tracking::TrackingResult& result) {
        obs::JsonWriter json;
        json.begin_object();
        json.key("metric").value(trace::metric_name(metric));
        json.key("table").value(
            tracking::trend_table(result, metric).to_text(2));
        json.key("csv").value(tracking::trends_csv(result));
        json.end_object();
        return json.str();
      });
}

std::string TrackingService::do_report(const Request& request) {
  auto study = study_of(request);
  std::string title = param_string(request, "title");
  if (title.empty()) title = request.study;
  return cached_render(
      *study, request.study, std::string("report:") + title,
      [&title](const tracking::TrackingResult& result) {
        tracking::HtmlReportOptions options;
        options.title = title;
        obs::JsonWriter json;
        json.begin_object();
        write_result_summary(json, result);
        json.key("html").value(tracking::html_report(result, options));
        json.end_object();
        return json.str();
      });
}

std::string TrackingService::do_coverage(const Request& request) {
  auto study = study_of(request);
  auto result = tracked_result(*study);

  obs::JsonWriter json;
  json.begin_object();
  write_result_summary(json, *result);
  json.end_object();
  return json.str();
}

std::string TrackingService::do_stats(const Request& request) {
  obs::JsonWriter json;
  json.begin_object();

  if (!request.study.empty()) {
    auto study = registry_.get(request.study);
    std::shared_lock lock(study->mutex);
    touch(*study);
    json.key("study").value(request.study);
    json.key("resident").value(study->session != nullptr);
    json.key("tracked").value(study->tracked());
    json.key("appends").value(study->appends);
    json.key("retracks").value(study->retracks);
    json.key("rebuilds").value(study->rebuilds);
    json.key("evictions").value(study->evictions);
    json.key("generation")
        .value(study->generation.load(std::memory_order_acquire));
    if (study->journal != nullptr) {
      json.key("journal").begin_object();
      json.key("records").value(study->journal->records());
      json.key("bytes").value(study->journal->bytes());
      json.key("compactions").value(study->journal->compactions());
      json.key("last_seq").value(study->last_seq);
      json.end_object();
    }
    if (study->session != nullptr) {
      const tracking::SessionStats& s = study->session->stats();
      json.key("session").begin_object();
      json.key("frames_clustered").value(s.frames_clustered);
      json.key("frames_memoized").value(s.frames_memoized);
      json.key("pairs_tracked").value(s.pairs_tracked);
      json.key("pairs_memoized").value(s.pairs_memoized);
      json.key("scale_invalidations").value(s.scale_invalidations);
      json.end_object();
    }
    json.end_object();
    return json.str();
  }

  std::uint64_t appends = 0, retracks = 0, rebuilds = 0, evictions = 0;
  std::size_t resident = 0;
  const std::vector<std::string> names = registry_.names();
  for (const std::string& name : names) {
    std::shared_ptr<StudyState> study;
    try {
      study = registry_.get(name);
    } catch (const ServeError&) {
      continue;  // closed between names() and get(); skip
    }
    std::shared_lock lock(study->mutex);
    appends += study->appends;
    retracks += study->retracks;
    rebuilds += study->rebuilds;
    evictions += study->evictions;
    if (study->session != nullptr) ++resident;
  }
  json.key("studies").value(static_cast<std::uint64_t>(names.size()));
  json.key("resident_sessions").value(static_cast<std::uint64_t>(resident));
  json.key("appends").value(appends);
  json.key("retracks").value(retracks);
  json.key("rebuilds").value(rebuilds);
  json.key("evictions").value(evictions);
  json.key("uptime_ns").value(obs::now_ns() - start_ns_);
  json.key("draining").value(shutdown_requested());
  const RenderCache::Counters rc = render_cache_.counters();
  json.key("render_cache").begin_object();
  json.key("hits").value(rc.hits);
  json.key("misses").value(rc.misses);
  json.key("inserts").value(rc.inserts);
  json.key("evictions").value(rc.evictions);
  json.key("entries").value(rc.entries);
  json.end_object();
  json.key("journal").begin_object();
  json.key("enabled").value(durable());
  json.key("recovered").value(journal_recovered_.load());
  json.key("truncated").value(journal_truncated_.load());
  json.key("quarantined").value(journal_quarantined_.load());
  json.key("deduped").value(journal_deduped_.load());
  json.key("errors").value(journal_errors_.load());
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
  // Per-method latency distributions from the live metrics plane (empty
  // when ServiceConfig::metrics is off or nothing ran yet).
  json.key("latency").begin_object();
  for (const auto& [method, hist] : metrics_.per_method_latency()) {
    json.key(method).begin_object();
    json.key("count").value(hist.count);
    json.key("p50_ns").value(hist.quantile(0.50));
    json.key("p99_ns").value(hist.quantile(0.99));
    json.key("max_ns").value(hist.max);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  return json.str();
}

void TrackingService::refresh_gauges() {
  obs::MetricsRegistry& reg = metrics_.registry();
  std::size_t resident = 0;
  const std::vector<std::string> names = registry_.names();
  for (const std::string& name : names) {
    std::shared_ptr<StudyState> study;
    try {
      study = registry_.get(name);
    } catch (const ServeError&) {
      continue;
    }
    std::shared_lock lock(study->mutex);
    if (study->session != nullptr) ++resident;
  }
  reg.gauge("perftrackd_studies").set(static_cast<double>(names.size()));
  reg.gauge("perftrackd_resident_sessions")
      .set(static_cast<double>(resident));
  reg.gauge("perftrackd_uptime_seconds")
      .set(static_cast<double>(obs::now_ns() - start_ns_) / 1e9);
  const RenderCache::Counters rc = render_cache_.counters();
  reg.gauge("perftrackd_render_cache_hits").set(static_cast<double>(rc.hits));
  reg.gauge("perftrackd_render_cache_misses")
      .set(static_cast<double>(rc.misses));
  reg.gauge("perftrackd_render_cache_inserts")
      .set(static_cast<double>(rc.inserts));
  reg.gauge("perftrackd_render_cache_evictions")
      .set(static_cast<double>(rc.evictions));
  reg.gauge("perftrackd_render_cache_entries")
      .set(static_cast<double>(rc.entries));
  if (durable()) {
    reg.gauge("perftrackd_journal_recovered")
        .set(static_cast<double>(journal_recovered_.load()));
    reg.gauge("perftrackd_journal_truncated")
        .set(static_cast<double>(journal_truncated_.load()));
    reg.gauge("perftrackd_journal_quarantined")
        .set(static_cast<double>(journal_quarantined_.load()));
    reg.gauge("perftrackd_journal_errors")
        .set(static_cast<double>(journal_errors_.load()));
  }
  if (queue_stats_) {
    QueueStats queue = queue_stats_();
    reg.gauge("perftrackd_queue_depth")
        .set(static_cast<double>(queue.in_flight));
    reg.gauge("perftrackd_queue_capacity")
        .set(static_cast<double>(queue.capacity));
  }
}

std::string TrackingService::render_prometheus_metrics() {
  refresh_gauges();
  obs::MetricsRegistry& reg = metrics_.registry();
  return obs::prometheus_text(reg.snapshot(), reg.help_texts());
}

std::string TrackingService::render_json_metrics() {
  refresh_gauges();
  return obs::metrics_json(metrics_.registry().snapshot());
}

std::string TrackingService::do_metrics(const Request& request) {
  const std::string format = param_string(request, "format");
  if (format.empty() || format == "json") return render_json_metrics();
  if (format != "prometheus")
    throw ServeError(ErrorCode::BadRequest,
                     "parameter \"format\" must be \"json\" or "
                     "\"prometheus\"");
  obs::JsonWriter json;
  json.begin_object();
  json.key("content_type").value("text/plain; version=0.0.4");
  json.key("text").value(render_prometheus_metrics());
  json.end_object();
  return json.str();
}

std::string TrackingService::do_health(const Request&) {
  obs::JsonWriter json;
  json.begin_object();
  json.key("ok").value(true);
  json.key("draining").value(shutdown_requested());
  json.key("uptime_ns").value(obs::now_ns() - start_ns_);
  json.key("studies")
      .value(static_cast<std::uint64_t>(registry_.names().size()));
  json.end_object();
  return json.str();
}

std::string TrackingService::do_evict(const Request& request) {
  auto study = study_of(request);
  std::unique_lock lock(study->mutex, std::defer_lock);
  acquire_timed(lock, metrics_);
  const bool evicted = evict_study(*study);

  obs::JsonWriter json;
  json.begin_object().key("evicted").value(evicted).end_object();
  return json.str();
}

std::size_t TrackingService::sweep() {
  return registry_.evict_idle(obs::now_ns(), config_.idle_ttl_ns,
                              config_.max_resident);
}

std::string TrackingService::do_sweep(const Request&) {
  std::size_t evicted = sweep();
  obs::JsonWriter json;
  json.begin_object()
      .key("evicted")
      .value(static_cast<std::uint64_t>(evicted))
      .end_object();
  return json.str();
}

std::string TrackingService::do_shutdown(const Request&) {
  shutdown_.store(true, std::memory_order_release);
  PT_LOG(Info) << "serve: shutdown requested, draining";
  obs::JsonWriter json;
  json.begin_object().key("draining").value(true).end_object();
  return json.str();
}

}  // namespace perftrack::serve
