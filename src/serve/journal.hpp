#pragma once
// Crash-safe durability plane for perftrackd studies.
//
// A study's append log (the ordered list of trace paths / inline texts /
// gaps that *defines* it — see registry.hpp) used to live only in memory:
// a daemon crash silently lost every open study. The journal makes the log
// durable. Each study owns one append-only file under the daemon's state
// directory:
//
//   <state-dir>/<escaped-study-name>.journal
//
// framed with the store/serialize primitives (BinWriter + fnv1a64):
//
//   header  := "PTJL" u32 version
//   record  := u32 payload_len | u64 fnv1a64(payload) | payload
//   payload := u8 type | fields        (Create / Append / Remove)
//
// The Create record pins the study's name and the open_study-settable
// configuration (eps, min_pts, min-cluster fraction, lenience, gap budget,
// and a retired string field, written empty) so a restarted daemon
// reopens the study exactly as the analyst configured it. Append records
// carry the log entry plus the client-supplied idempotency `seq`; Remove
// is the close_study tombstone, written and fsynced before the file is
// unlinked so a crash between the two still removes the study on the next
// boot.
//
// Write-ahead discipline: the service journals an append *before* applying
// it in memory, so every state a reader can observe is recoverable. On a
// write failure the journal heals its own tail (ftruncate back to the last
// committed record) so one failed append does not poison the file; a
// simulated crash (the journal_torn_write failpoint) skips the healing,
// which is exactly what recovery's truncate-at-first-bad-checksum handles.
//
// Recovery (recover_state_dir) rescans the directory on boot:
//   * a torn tail or a record with a bad checksum truncates the file at
//     the last good record, with a structured diagnostic (journal_truncated);
//   * a file without a valid header — or without a Create record — is
//     quarantined (renamed to *.quarantined, journal_quarantined) instead
//     of crashing the daemon or eating other studies;
//   * duplicate seq numbers (possible when a crash raced a batched fsync
//     and the client retried) are dropped during replay, preserving the
//     exactly-once contract;
//   * a trailing Remove tombstone deletes the file and restores nothing.
//
// Durability knobs: --fsync=always fsyncs every record (safest, slowest),
// batch fsyncs every batch_appends records plus on drain/close, off leaves
// flushing to the OS. Compaction (tmp+rename snapshot of the live log)
// bounds file growth and recovery-scan cost once a study accumulates
// compact_threshold records since the last rewrite.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "tracking/session.hpp"

namespace perftrack::serve {

/// One entry of a study's append log — the durable definition of the
/// sequence, retained across session eviction and daemon restarts.
struct AppendEntry {
  enum class Kind { Path, Inline, Gap };
  Kind kind = Kind::Path;
  std::string label;   ///< file path, inline label, or gap label
  std::string detail;  ///< inline trace text, or gap reason
  /// Client-supplied idempotency sequence number (0 = none). Appends that
  /// carry a seq are applied exactly once: replays of an already-applied
  /// seq are acknowledged without re-appending.
  std::uint64_t seq = 0;
};

/// When journal records reach the disk platter.
enum class FsyncMode {
  Always,  ///< fsync after every record (create/append/tombstone)
  Batch,   ///< fsync every batch_appends records and on sync()/close
  Off,     ///< never fsync; the OS flushes when it pleases
};

/// Parse "always" | "batch" | "off"; throws Error otherwise.
FsyncMode fsync_mode_from_name(const std::string& name);
std::string_view fsync_mode_name(FsyncMode mode);

struct JournalConfig {
  /// State directory holding one journal per study; empty disables the
  /// durability plane entirely. Created on demand.
  std::string directory;

  FsyncMode fsync = FsyncMode::Batch;

  /// Batch mode: fsync after this many unsynced records.
  std::size_t batch_appends = 64;

  /// Snapshot-rewrite a journal after this many records appended since the
  /// last rewrite (0 = never compact).
  std::size_t compact_threshold = 4096;

  bool enabled() const { return !directory.empty(); }
};

/// File name (not path) a study journals into: the study name with every
/// byte outside [A-Za-z0-9_-] percent-escaped, plus the ".journal"
/// extension. Injective, so distinct studies never share a file.
std::string journal_file_name(const std::string& study);

/// The append-side handle to one study's journal file. Not thread-safe:
/// the owning StudyState's exclusive lock serialises all calls.
class Journal {
public:
  /// Start a fresh journal for `study` (truncating any leftover file) and
  /// durably record the Create record. Throws IoError.
  static std::unique_ptr<Journal> create(
      const JournalConfig& config, const std::string& study,
      const tracking::SessionConfig& session);

  /// Re-attach to a journal validated by recover_state_dir for further
  /// appends. `records`/`bytes` come from the recovery scan. Throws
  /// IoError when the file cannot be reopened.
  static std::unique_ptr<Journal> attach(const JournalConfig& config,
                                         const std::string& study,
                                         std::uint64_t records,
                                         std::uint64_t bytes);

  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Durably append one log entry per the fsync policy. Throws IoError on
  /// a write/fsync failure; the in-memory log must then NOT be updated
  /// (write-ahead ordering). The tail self-heals after a failed write, so
  /// the journal stays usable unless a crash was simulated.
  void append(const AppendEntry& entry);

  /// close_study: write + fsync the Remove tombstone, then unlink the
  /// file. Throws IoError when the tombstone cannot be made durable (the
  /// study then stays open); a failed unlink after a durable tombstone is
  /// only a warning — recovery deletes the file on the next boot.
  void remove_and_unlink();

  /// Flush any unsynced records to disk (drain / SIGTERM path). Throws
  /// IoError when fsync fails.
  void sync();

  /// True once compact_threshold records accumulated since the last
  /// rewrite (never when compaction is disabled or the journal is broken).
  bool should_compact() const;

  /// Snapshot-rewrite the journal to exactly `live` (tmp + fsync +
  /// rename), dropping dead bytes and resetting the compaction clock.
  /// Throws IoError; the original file stays intact on failure.
  void compact(const std::string& study,
               const tracking::SessionConfig& session,
               const std::vector<AppendEntry>& live);

  std::uint64_t records() const { return records_; }
  std::uint64_t bytes() const { return good_size_; }
  std::uint64_t compactions() const { return compactions_; }
  const std::string& path() const { return path_; }

private:
  Journal(JournalConfig config, std::string study, std::string path);

  void open_for_append(bool truncate);
  void write_record_or_heal(const std::string& record);
  void heal_tail();
  void fsync_now();
  void fsync_directory();

  JournalConfig config_;
  std::string study_;
  std::string path_;
  int fd_ = -1;
  std::uint64_t good_size_ = 0;   ///< bytes up to the last committed record
  std::uint64_t records_ = 0;     ///< records in the file
  std::uint64_t unsynced_ = 0;    ///< records since the last fsync
  std::uint64_t appended_since_compact_ = 0;
  std::uint64_t compactions_ = 0;
  bool broken_ = false;  ///< simulated crash left a torn tail; appends fail
};

/// One study restored by the recovery scan.
struct RecoveredStudy {
  std::string name;
  tracking::SessionConfig config;  ///< base config + journaled overrides
  std::vector<AppendEntry> entries;
  std::uint64_t last_seq = 0;  ///< highest idempotency seq ever applied
  std::uint64_t records = 0;   ///< records in the (possibly truncated) file
  std::uint64_t bytes = 0;     ///< file size after truncation
  bool truncated = false;      ///< a torn tail / bad record was cut off
};

/// Outcome of one boot-time state-dir scan.
struct RecoveryReport {
  std::vector<RecoveredStudy> studies;
  std::uint64_t recovered = 0;    ///< studies restored
  std::uint64_t truncated = 0;    ///< journals cut at a torn/corrupt record
  std::uint64_t quarantined = 0;  ///< unreadable journals set aside
  std::uint64_t tombstones = 0;   ///< closed studies' journals deleted
  std::uint64_t deduped = 0;      ///< duplicate-seq records skipped
};

/// Scan `config.directory` for *.journal files and rebuild every study's
/// durable log. `base` supplies the configuration fields the Create record
/// does not override. Never throws: unreadable journals are quarantined
/// with a diagnostic, torn tails truncated in place. A missing or empty
/// directory recovers nothing.
RecoveryReport recover_state_dir(const JournalConfig& config,
                                 const tracking::SessionConfig& base);

}  // namespace perftrack::serve
