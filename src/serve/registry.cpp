#include "serve/registry.hpp"

#include <algorithm>
#include <mutex>

#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "obs/telemetry.hpp"
#include "serve/protocol.hpp"
#include "trace/trace_io.hpp"

namespace perftrack::serve {

std::shared_ptr<StudyState> StudyRegistry::create(
    const std::string& name, tracking::SessionConfig config) {
  auto study = std::make_shared<StudyState>(std::move(config));
  study->instance_id = next_instance_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock lock(mutex_);
  auto [it, inserted] = studies_.emplace(name, study);
  if (!inserted)
    throw ServeError(ErrorCode::StudyExists,
                     "study '" + name + "' is already open");
  return study;
}

std::shared_ptr<StudyState> StudyRegistry::get(const std::string& name) const {
  std::shared_lock lock(mutex_);
  auto it = studies_.find(name);
  if (it == studies_.end())
    throw ServeError(ErrorCode::UnknownStudy,
                     "no study named '" + name +
                         "' (did you open_study it?)");
  return it->second;
}

void StudyRegistry::remove(const std::string& name) {
  std::unique_lock lock(mutex_);
  if (studies_.erase(name) == 0)
    throw ServeError(ErrorCode::UnknownStudy,
                     "no study named '" + name + "'");
}

std::vector<std::string> StudyRegistry::names() const {
  std::shared_lock lock(mutex_);
  std::vector<std::string> out;
  out.reserve(studies_.size());
  for (const auto& [name, study] : studies_) out.push_back(name);
  return out;
}

std::size_t StudyRegistry::size() const {
  std::shared_lock lock(mutex_);
  return studies_.size();
}

std::size_t StudyRegistry::evict_idle(std::uint64_t now_ns,
                                      std::uint64_t idle_ttl_ns,
                                      std::size_t max_resident) {
  // Snapshot the shards, then lock each study individually: eviction must
  // never hold the registry lock while waiting on a busy study.
  struct Candidate {
    std::shared_ptr<StudyState> study;
    std::uint64_t last_used_ns;
  };
  std::vector<Candidate> resident;
  {
    std::shared_lock lock(mutex_);
    for (const auto& [name, study] : studies_) {
      std::shared_lock study_lock(study->mutex);
      if (study->session != nullptr || study->result != nullptr)
        resident.push_back({study, study->last_used_ns});
    }
  }

  std::size_t evicted = 0;
  // Age rule first: anything idle past the TTL goes regardless of count.
  if (idle_ttl_ns > 0) {
    for (auto it = resident.begin(); it != resident.end();) {
      if (now_ns >= it->last_used_ns &&
          now_ns - it->last_used_ns > idle_ttl_ns) {
        std::unique_lock study_lock(it->study->mutex);
        // Re-check under the exclusive lock: the study may have been
        // touched (or already evicted) since the snapshot.
        if (it->study->last_used_ns == it->last_used_ns &&
            evict_study(*it->study))
          ++evicted;
        it = resident.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Capacity rule: drop least recently used shards beyond the cap.
  if (max_resident > 0 && resident.size() > max_resident) {
    std::sort(resident.begin(), resident.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.last_used_ns < b.last_used_ns;
              });
    const std::size_t excess = resident.size() - max_resident;
    for (std::size_t i = 0; i < excess; ++i) {
      std::unique_lock study_lock(resident[i].study->mutex);
      if (resident[i].study->last_used_ns == resident[i].last_used_ns &&
          evict_study(*resident[i].study))
        ++evicted;
    }
  }
  return evicted;
}

bool evict_study(StudyState& study) {
  if (study.session == nullptr && study.result == nullptr) return false;
  study.session.reset();
  study.result.reset();
  study.tracked_slots = 0;
  ++study.evictions;
  PT_COUNTER("serve_evictions", 1.0);
  PT_LOG(Debug) << "serve: evicted idle study state ("
                << study.log.size() << " logged appends kept)";
  return true;
}

void ensure_session(StudyState& study) {
  if (study.session != nullptr) return;
  PT_SPAN("serve_rebuild_session");
  auto session = std::make_unique<tracking::TrackingSession>(study.config);
  ThreadPool& pool =
      ThreadPool::shared(ThreadPool::resolve(study.config.tracking.threads));
  for (const AppendEntry& entry : study.log) {
    switch (entry.kind) {
      case AppendEntry::Kind::Gap:
        session->append_gap(entry.label, entry.detail);
        break;
      case AppendEntry::Kind::Inline: {
        Diagnostics diags = study.config.resilience.lenient
                                ? Diagnostics::lenient()
                                : Diagnostics::strict();
        diags.set_file(entry.label);
        session->append_experiment(std::make_shared<const trace::Trace>(
            trace::read_trace(std::string_view(entry.detail), diags, pool)));
        break;
      }
      case AppendEntry::Kind::Path: {
        Diagnostics diags = study.config.resilience.lenient
                                ? Diagnostics::lenient()
                                : Diagnostics::strict();
        try {
          session->append_experiment(std::make_shared<const trace::Trace>(
              trace::load_trace(entry.label, diags, pool)));
        } catch (const Error& error) {
          // The original append succeeded, but the file is gone or broken
          // now. In lenient mode the slot degrades to a gap (same as a
          // fresh failing append would); strict mode surfaces a typed
          // replay failure — the study stays evicted (the half-built
          // session is discarded with this frame), other studies are
          // untouched, and the client learns which entry to restore.
          if (!study.config.resilience.lenient)
            throw ServeError(
                ErrorCode::ReplayFailed,
                "cannot replay study log entry '" + entry.label +
                    "': " + error.what() +
                    " (study stays evicted; restore the trace file, or "
                    "reopen the study leniently)");
          PT_LOG(Warn) << "serve: rebuild lost experiment '" << entry.label
                       << "': " << error.what();
          session->append_gap(entry.label, error.what());
        }
        break;
      }
    }
  }
  study.session = std::move(session);
  if (!study.log.empty()) {
    ++study.rebuilds;
    PT_COUNTER("serve_rebuilds", 1.0);
  }
}

}  // namespace perftrack::serve
