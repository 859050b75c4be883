#pragma once
// Study registry: named, independently locked tracking sessions.
//
// perftrackd serves many studies at once; each study is one analyst's
// append-only experiment sequence (a TrackingSession) plus the last
// retracked result. The registry gives every study its own shard — an
// RW-locked StudyState — so the service can run concurrent reads of a
// tracked study while appends to it are serialized, and studies never
// contend with each other:
//
//   * regions/trends/coverage take the study's lock shared,
//   * open/append/retrack/evict take it exclusive,
//   * the registry map itself has a second shared_mutex, held only long
//     enough to resolve a name to its shard.
//
// Eviction: a study idle past its TTL (or beyond the resident-session cap)
// drops its heavy state — the TrackingSession with its memoised frames and
// the cached TrackingResult — but keeps the append log: the ordered list
// of trace paths / inline texts / gaps that *define* the study. The next
// request that needs a session replays the log into a fresh one, which
// reclusters every experiment (the "rebuilds" counter makes this visible).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "serve/journal.hpp"
#include "tracking/session.hpp"

namespace perftrack::serve {

/// One study shard. The mutex guards every member; the registry hands out
/// shared_ptrs so a shard stays valid while a handler works on it even if
/// the study is concurrently closed. AppendEntry (the log element type)
/// lives in journal.hpp — it is also the journal's durable record.
struct StudyState {
  explicit StudyState(tracking::SessionConfig config)
      : config(std::move(config)) {}

  mutable std::shared_mutex mutex;

  const tracking::SessionConfig config;
  std::vector<AppendEntry> log;

  /// Write-ahead journal making `log` durable, or null when the daemon
  /// runs without --state-dir. Appends hit the journal before the session.
  std::unique_ptr<Journal> journal;

  /// Highest client-supplied idempotency seq ever applied (0 = none yet);
  /// appends with seq <= last_seq are acknowledged replays, not re-applied.
  std::uint64_t last_seq = 0;

  /// Live session, or null while evicted. Rebuilt on demand from `log`.
  std::unique_ptr<tracking::TrackingSession> session;

  /// Result of the last retrack and how many log slots it covers; reads
  /// are served from here. Shared_ptr so a response can outlive an evict.
  std::shared_ptr<const tracking::TrackingResult> result;
  std::size_t tracked_slots = 0;

  /// Telemetry clock timestamp of the last request touching this study.
  /// Atomic: readers refresh it while holding the lock only shared.
  std::atomic<std::uint64_t> last_used_ns{0};

  /// Monotonically increasing content version: bumped (under the
  /// exclusive lock) by every append/gap that changes what a read would
  /// render. The render cache (serve/render_cache.hpp) keys responses by
  /// it, so a generation mismatch is the whole invalidation story.
  /// Session eviction does NOT bump it — the rebuilt session is
  /// bit-identical, so cached renders stay valid. Atomic so the cache
  /// lookup can read it without the study lock.
  std::atomic<std::uint64_t> generation{0};

  /// Registry-unique id, assigned once by StudyRegistry::create before
  /// the study becomes visible. Folded into render-cache keys so a
  /// closed-and-reopened study (whose generation restarts at zero) never
  /// collides with its predecessor's cached bytes.
  std::uint64_t instance_id = 0;

  std::uint64_t appends = 0;    ///< experiments + gaps ever appended
  std::uint64_t retracks = 0;   ///< explicit + implicit retrack executions
  std::uint64_t rebuilds = 0;   ///< sessions rebuilt after an eviction
  std::uint64_t evictions = 0;  ///< times the heavy state was dropped

  /// Reads need a result covering every appended slot.
  bool tracked() const { return result != nullptr && tracked_slots == log.size(); }
};

class StudyRegistry {
public:
  /// Create a study; throws ServeError{StudyExists} when the name is taken.
  std::shared_ptr<StudyState> create(const std::string& name,
                                     tracking::SessionConfig config);

  /// Resolve a name; throws ServeError{UnknownStudy} when absent.
  std::shared_ptr<StudyState> get(const std::string& name) const;

  /// Remove a study entirely (log included). Throws UnknownStudy.
  void remove(const std::string& name);

  /// Open study names, sorted.
  std::vector<std::string> names() const;

  std::size_t size() const;

  /// Drop the heavy state of every study idle for more than `idle_ttl_ns`
  /// at time `now_ns`, and — when `max_resident` > 0 — of the least
  /// recently used studies beyond that resident-session cap. Returns the
  /// number of sessions evicted. TTL 0 disables the age rule.
  std::size_t evict_idle(std::uint64_t now_ns, std::uint64_t idle_ttl_ns,
                         std::size_t max_resident);

private:
  mutable std::shared_mutex mutex_;
  std::map<std::string, std::shared_ptr<StudyState>> studies_;
  std::atomic<std::uint64_t> next_instance_{1};
};

/// Drop `study`'s session and cached result, keeping the append log.
/// Caller must hold the study's mutex exclusively. No-op when already
/// evicted (returns false).
bool evict_study(StudyState& study);

/// Ensure `study` has a live session, replaying the append log if it was
/// evicted (the rebuilt session reclusters on its next retrack). Caller
/// must hold the study's mutex exclusively.
void ensure_session(StudyState& study);

}  // namespace perftrack::serve
