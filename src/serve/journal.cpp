#include "serve/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/failpoint.hpp"
#include "common/log.hpp"
#include "obs/telemetry.hpp"
#include "store/serialize.hpp"

namespace perftrack::serve {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'P', 'T', 'J', 'L'};
constexpr std::uint32_t kJournalVersion = 1;
constexpr std::size_t kHeaderSize = 8;       // magic + u32 version
constexpr std::size_t kFrameSize = 12;       // u32 len + u64 checksum
// A journal payload is one log entry (create records add the study name
// and six config scalars); anything bigger than this is a corrupt length
// prefix, not a real record — recovery truncates there without trying to
// read a multi-gigabyte "record" into memory.
constexpr std::uint32_t kMaxPayload = 256u << 20;

enum class RecordType : std::uint8_t {
  Create = 1,  ///< study name + open_study-settable configuration
  Append = 2,  ///< one AppendEntry (kind, label, detail, seq)
  Remove = 3,  ///< close_study tombstone; the file is dead
};

/// The open_study-settable configuration fields, in Create-record order.
/// Everything else (tracking params, ...) comes from the daemon's base
/// configuration at recovery time, same as at open time. The last field
/// once held a frame-cache directory; it is written empty and read back
/// and dropped, so the v1 layout, and every existing journal, stays valid.
void encode_config(store::BinWriter& w, const tracking::SessionConfig& c) {
  w.f64(c.clustering.dbscan.eps);
  w.u64(static_cast<std::uint64_t>(c.clustering.dbscan.min_pts));
  w.f64(c.clustering.min_cluster_time_fraction);
  w.u8(c.resilience.lenient ? 1 : 0);
  w.f64(c.resilience.max_gap_fraction);
  w.str("");
}

void decode_config(store::BinReader& r, tracking::SessionConfig& c) {
  c.clustering.dbscan.eps = r.f64();
  c.clustering.dbscan.min_pts = static_cast<std::size_t>(r.u64());
  c.clustering.min_cluster_time_fraction = r.f64();
  c.resilience.lenient = r.u8() != 0;
  c.resilience.max_gap_fraction = r.f64();
  r.str();
}

std::string encode_header() {
  std::string out(kMagic, sizeof kMagic);
  store::BinWriter w;
  w.u32(kJournalVersion);
  out += w.bytes();
  return out;
}

/// Frame one payload: u32 length, u64 fnv1a64 checksum, payload bytes.
std::string frame_record(const std::string& payload) {
  store::BinWriter w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u64(store::fnv1a64(payload));
  std::string out = w.take();
  out += payload;
  return out;
}

std::string create_payload(const std::string& study,
                           const tracking::SessionConfig& session) {
  store::BinWriter w;
  w.u8(static_cast<std::uint8_t>(RecordType::Create));
  w.str(study);
  encode_config(w, session);
  return w.take();
}

std::string append_payload(const AppendEntry& entry) {
  store::BinWriter w;
  w.u8(static_cast<std::uint8_t>(RecordType::Append));
  w.u8(static_cast<std::uint8_t>(entry.kind));
  w.str(entry.label);
  w.str(entry.detail);
  w.u64(entry.seq);
  return w.take();
}

std::string remove_payload() {
  store::BinWriter w;
  w.u8(static_cast<std::uint8_t>(RecordType::Remove));
  return w.take();
}

bool write_all_fd(int fd, const char* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

char hex_digit(unsigned v) { return "0123456789abcdef"[v & 0xf]; }

}  // namespace

FsyncMode fsync_mode_from_name(const std::string& name) {
  if (name == "always") return FsyncMode::Always;
  if (name == "batch") return FsyncMode::Batch;
  if (name == "off") return FsyncMode::Off;
  throw Error("unknown fsync mode '" + name +
              "' (expected always, batch, or off)");
}

std::string_view fsync_mode_name(FsyncMode mode) {
  switch (mode) {
    case FsyncMode::Always: return "always";
    case FsyncMode::Batch: return "batch";
    case FsyncMode::Off: return "off";
  }
  return "batch";
}

std::string journal_file_name(const std::string& study) {
  std::string out;
  out.reserve(study.size() + 8);
  for (char c : study) {
    const bool plain = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (plain) {
      out += c;
    } else {
      out += '%';
      out += hex_digit(static_cast<unsigned char>(c) >> 4);
      out += hex_digit(static_cast<unsigned char>(c));
    }
  }
  if (out.empty()) out = "%";  // "" is not a valid study, but never emit ""
  return out + ".journal";
}

// ---------------------------------------------------------------------------
// Journal

Journal::Journal(JournalConfig config, std::string study, std::string path)
    : config_(std::move(config)),
      study_(std::move(study)),
      path_(std::move(path)) {}

Journal::~Journal() {
  if (fd_ < 0) return;
  if (config_.fsync != FsyncMode::Off && unsynced_ > 0) ::fsync(fd_);
  ::close(fd_);
}

std::unique_ptr<Journal> Journal::create(
    const JournalConfig& config, const std::string& study,
    const tracking::SessionConfig& session) {
  std::error_code ec;
  fs::create_directories(config.directory, ec);
  if (ec)
    throw IoError("cannot create state directory " + config.directory +
                  ": " + ec.message());
  const std::string path =
      (fs::path(config.directory) / journal_file_name(study)).string();
  std::unique_ptr<Journal> journal(new Journal(config, study, path));
  journal->open_for_append(/*truncate=*/true);
  const std::string header = encode_header();
  if (!write_all_fd(journal->fd_, header.data(), header.size()))
    throw io_error("cannot write journal header", path);
  journal->good_size_ = header.size();
  journal->write_record_or_heal(frame_record(create_payload(study, session)));
  // The header + create record are the file's identity; make them durable
  // before the study accepts appends (batch mode included — losing the
  // create would orphan every later record).
  if (config.fsync != FsyncMode::Off) {
    journal->fsync_now();
    journal->fsync_directory();
  }
  journal->unsynced_ = 0;
  return journal;
}

std::unique_ptr<Journal> Journal::attach(const JournalConfig& config,
                                         const std::string& study,
                                         std::uint64_t records,
                                         std::uint64_t bytes) {
  const std::string path =
      (fs::path(config.directory) / journal_file_name(study)).string();
  std::unique_ptr<Journal> journal(new Journal(config, study, path));
  journal->open_for_append(/*truncate=*/false);
  journal->good_size_ = bytes;
  journal->records_ = records;
  return journal;
}

void Journal::open_for_append(bool truncate) {
  int flags = O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC;
  if (truncate) flags |= O_TRUNC;
  fd_ = ::open(path_.c_str(), flags, 0644);
  if (fd_ < 0) throw io_error("cannot open journal", path_);
}

void Journal::write_record_or_heal(const std::string& record) {
  if (!write_all_fd(fd_, record.data(), record.size())) {
    IoError error = io_error("cannot write journal record", path_);
    heal_tail();
    throw error;
  }
  good_size_ += record.size();
  ++records_;
  ++unsynced_;
}

void Journal::append(const AppendEntry& entry) {
  PT_SPAN("journal_append");
  if (broken_)
    throw IoError("journal " + path_ +
                  " has a torn tail from an earlier failure; restart the "
                  "daemon to recover it");
  const std::string record = frame_record(append_payload(entry));

  // Crash-injection seams. journal_torn_write simulates dying mid-write:
  // half the record lands and nothing heals, exactly the state a kill -9
  // leaves behind (recovery truncates it). journal_short_write simulates a
  // live failure (ENOSPC): half the record lands, the tail heals, the next
  // append works.
  bool torn = false, short_write = false;
  try {
    PT_FAILPOINT("journal_torn_write");
  } catch (const InjectedFault&) {
    torn = true;
  }
  try {
    PT_FAILPOINT("journal_short_write");
  } catch (const InjectedFault&) {
    short_write = true;
  }
  if (torn || short_write) {
    write_all_fd(fd_, record.data(), record.size() / 2);
    if (torn) {
      broken_ = true;
      throw IoError("injected torn write on " + path_ +
                    " (simulated crash mid-append)");
    }
    heal_tail();
    throw IoError("injected short write on " + path_);
  }
  try {
    PT_FAILPOINT("journal_append_error");
  } catch (const InjectedFault&) {
    throw IoError("injected append error on " + path_);
  }

  if (!write_all_fd(fd_, record.data(), record.size())) {
    IoError error = io_error("cannot append journal record", path_);
    heal_tail();
    throw error;
  }
  good_size_ += record.size();
  ++records_;
  ++unsynced_;
  ++appended_since_compact_;
  const bool sync_due =
      config_.fsync == FsyncMode::Always ||
      (config_.fsync == FsyncMode::Batch &&
       unsynced_ >= std::max<std::size_t>(config_.batch_appends, 1));
  if (!sync_due) return;
  try {
    fsync_now();
  } catch (const IoError&) {
    // The record's bytes are in the file but their durability is unknown,
    // so the caller must not apply it in memory (write-ahead ordering).
    // Cut it back off so disk and memory agree; if even the truncate
    // fails, recovery's seq dedupe covers a client replay of this append.
    good_size_ -= record.size();
    --records_;
    --unsynced_;
    --appended_since_compact_;
    heal_tail();
    throw;
  }
}

void Journal::fsync_now() {
  try {
    PT_FAILPOINT("journal_fsync_error");
  } catch (const InjectedFault&) {
    throw IoError("injected fsync error on " + path_);
  }
  if (::fsync(fd_) != 0) throw io_error("cannot fsync journal", path_);
  unsynced_ = 0;
}

void Journal::fsync_directory() {
  // Directory fsync publishes the create/rename/unlink itself; skipping it
  // risks a journal whose *name* vanishes in a crash even though its bytes
  // were synced. Best effort: not every filesystem allows it.
  int dfd = ::open(config_.directory.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return;
  ::fsync(dfd);
  ::close(dfd);
}

void Journal::heal_tail() {
  // Cut the file back to the last committed record so a partial write
  // cannot shadow future appends. good_size_ only counts whole records,
  // so truncating there is always safe.
  if (::ftruncate(fd_, static_cast<off_t>(good_size_)) != 0) {
    broken_ = true;
    PT_LOG(Warn) << "journal: cannot truncate partial record off " << path_
                 << ": " << std::strerror(errno)
                 << " — journal disabled until restart";
  }
}

void Journal::sync() {
  if (fd_ < 0 || broken_) return;
  if (config_.fsync == FsyncMode::Off || unsynced_ == 0) return;
  fsync_now();
}

void Journal::remove_and_unlink() {
  if (fd_ < 0) return;
  if (!broken_) {
    const std::string record = frame_record(remove_payload());
    if (!write_all_fd(fd_, record.data(), record.size())) {
      IoError error = io_error("cannot write close tombstone", path_);
      heal_tail();
      throw error;
    }
    good_size_ += record.size();
    ++records_;
    // The tombstone must be durable before the name disappears: a crash
    // after unlink but before the data reached disk could resurrect the
    // study from the still-linked blocks on some filesystems.
    if (config_.fsync != FsyncMode::Off) fsync_now();
  }
  if (::unlink(path_.c_str()) != 0) {
    PT_LOG(Warn) << "journal: cannot unlink " << path_ << ": "
                 << std::strerror(errno)
                 << " — the tombstone removes the study on the next boot";
  } else if (config_.fsync != FsyncMode::Off) {
    fsync_directory();
  }
  ::close(fd_);
  fd_ = -1;
}

bool Journal::should_compact() const {
  return !broken_ && config_.compact_threshold > 0 &&
         appended_since_compact_ >= config_.compact_threshold;
}

void Journal::compact(const std::string& study,
                      const tracking::SessionConfig& session,
                      const std::vector<AppendEntry>& live) {
  const std::string tmp_path = path_ + ".tmp";
  int tmp_fd = ::open(tmp_path.c_str(),
                      O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (tmp_fd < 0) throw io_error("cannot open compaction file", tmp_path);

  std::string snapshot = encode_header();
  snapshot += frame_record(create_payload(study, session));
  for (const AppendEntry& entry : live)
    snapshot += frame_record(append_payload(entry));

  bool ok = write_all_fd(tmp_fd, snapshot.data(), snapshot.size());
  // The snapshot must be on disk before the rename publishes it: a crash
  // right after rename must never leave a shorter journal than before.
  if (ok && config_.fsync != FsyncMode::Off) ok = ::fsync(tmp_fd) == 0;
  ::close(tmp_fd);
  if (!ok) {
    IoError error = io_error("cannot write compacted journal", tmp_path);
    ::unlink(tmp_path.c_str());
    throw error;
  }
  if (::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    IoError error = io_error("cannot publish compacted journal", path_);
    ::unlink(tmp_path.c_str());
    throw error;
  }
  if (config_.fsync != FsyncMode::Off) fsync_directory();

  // Swap the fd to the new file; the old one is unlinked by the rename.
  ::close(fd_);
  fd_ = -1;
  open_for_append(/*truncate=*/false);
  good_size_ = snapshot.size();
  records_ = 1 + live.size();
  unsynced_ = 0;
  appended_since_compact_ = 0;
  ++compactions_;
  PT_COUNTER("journal_compactions", 1.0);
  PT_LOG(Debug) << "journal: compacted " << path_ << " to "
                << snapshot.size() << " bytes (" << live.size()
                << " live entries)";
}

// ---------------------------------------------------------------------------
// Recovery

namespace {

struct ParsedJournal {
  bool has_create = false;
  bool removed = false;  ///< last record is a tombstone
  RecoveredStudy study;
  std::uint64_t good_offset = 0;  ///< file offset after the last good record
  std::uint64_t deduped = 0;      ///< duplicate-seq records skipped
  std::string damage;             ///< why the scan stopped early ("" = clean)
};

/// Parse one journal's bytes; never throws. Stops at the first torn or
/// corrupt record, reporting everything before it plus where and why the
/// scan ended.
ParsedJournal parse_journal(const std::string& bytes) {
  ParsedJournal out;
  if (bytes.size() < kHeaderSize ||
      std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    out.damage = "missing or foreign header";
    return out;
  }
  {
    store::BinReader header(
        std::string_view(bytes).substr(sizeof kMagic, 4));
    const std::uint32_t version = header.u32();
    if (version != kJournalVersion) {
      out.damage =
          "unsupported journal version " + std::to_string(version);
      return out;
    }
  }
  out.good_offset = kHeaderSize;

  std::size_t pos = kHeaderSize;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kFrameSize) {
      out.damage = "torn record frame at offset " + std::to_string(pos);
      break;
    }
    store::BinReader frame(std::string_view(bytes).substr(pos, kFrameSize));
    const std::uint32_t len = frame.u32();
    const std::uint64_t checksum = frame.u64();
    if (len > kMaxPayload || bytes.size() - pos - kFrameSize < len) {
      out.damage = "torn record payload at offset " + std::to_string(pos) +
                   " (" + std::to_string(len) + " bytes framed)";
      break;
    }
    const std::string_view payload =
        std::string_view(bytes).substr(pos + kFrameSize, len);
    if (store::fnv1a64(payload) != checksum) {
      out.damage = "checksum mismatch at offset " + std::to_string(pos);
      break;
    }
    try {
      store::BinReader r(payload);
      const auto type = static_cast<RecordType>(r.u8());
      switch (type) {
        case RecordType::Create: {
          if (out.has_create) throw ParseError("duplicate create record");
          out.study.name = r.str();
          decode_config(r, out.study.config);
          out.has_create = true;
          break;
        }
        case RecordType::Append: {
          if (!out.has_create)
            throw ParseError("append record before create");
          AppendEntry entry;
          const std::uint8_t kind = r.u8();
          if (kind > static_cast<std::uint8_t>(AppendEntry::Kind::Gap))
            throw ParseError("unknown append kind " + std::to_string(kind));
          entry.kind = static_cast<AppendEntry::Kind>(kind);
          entry.label = r.str();
          entry.detail = r.str();
          entry.seq = r.u64();
          // A duplicate seq means a retry raced a crash or a failed fsync:
          // the entry is already in the log, so replaying it again would
          // break the exactly-once contract.
          if (entry.seq != 0 && entry.seq <= out.study.last_seq) {
            ++out.study.records;  // the record itself is valid
            ++out.deduped;
          } else {
            if (entry.seq != 0) out.study.last_seq = entry.seq;
            out.study.entries.push_back(std::move(entry));
            ++out.study.records;
          }
          break;
        }
        case RecordType::Remove: {
          out.removed = true;
          break;
        }
        default:
          throw ParseError("unknown record type " +
                           std::to_string(static_cast<unsigned>(type)));
      }
    } catch (const Error& error) {
      out.damage = std::string(error.what()) + " at offset " +
                   std::to_string(pos);
      break;
    }
    pos += kFrameSize + len;
    out.good_offset = pos;
    if (out.removed) break;  // everything after a tombstone is dead
  }
  return out;
}

void quarantine(const fs::path& path, RecoveryReport& report,
                const std::string& why) {
  const fs::path target = path.string() + ".quarantined";
  std::error_code ec;
  fs::rename(path, target, ec);
  ++report.quarantined;
  PT_COUNTER("journal_quarantined", 1.0);
  PT_LOG(Warn) << "journal: quarantined " << path.string() << " -> "
               << target.filename().string() << ": " << why
               << (ec ? " (rename failed: " + ec.message() + ")" : "");
}

}  // namespace

RecoveryReport recover_state_dir(const JournalConfig& config,
                                 const tracking::SessionConfig& base) {
  RecoveryReport report;
  if (!config.enabled()) return report;
  std::error_code ec;
  if (!fs::is_directory(config.directory, ec)) return report;

  // Deterministic scan order so diagnostics and duplicate-name handling
  // are reproducible.
  std::vector<fs::path> files;
  for (const auto& item : fs::directory_iterator(config.directory, ec)) {
    if (ec) break;
    if (item.is_regular_file() && item.path().extension() == ".journal")
      files.push_back(item.path());
  }
  std::sort(files.begin(), files.end());

  for (const fs::path& path : files) {
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      if (in) {
        std::ostringstream buffer;
        buffer << in.rdbuf();
        bytes = buffer.str();
        if (!in.good() && !in.eof()) bytes.clear();
      } else {
        quarantine(path, report, "unreadable file");
        continue;
      }
    }

    ParsedJournal parsed = parse_journal(bytes);
    if (!parsed.has_create) {
      quarantine(path, report,
                 parsed.damage.empty() ? "no create record" : parsed.damage);
      continue;
    }
    if (!parsed.damage.empty()) {
      // Torn tail or corrupt record after a valid prefix: keep the prefix,
      // cut the rest so the next boot scans clean.
      PT_LOG(Warn) << "journal: " << path.string() << ": " << parsed.damage
                   << "; truncating " << (bytes.size() - parsed.good_offset)
                   << " bytes (" << parsed.study.entries.size()
                   << " entries survive)";
      fs::resize_file(path, parsed.good_offset, ec);
      if (ec) {
        quarantine(path, report,
                   "cannot truncate damaged tail: " + ec.message());
        continue;
      }
      ++report.truncated;
      PT_COUNTER("journal_truncated", 1.0);
      parsed.study.truncated = true;
    }
    if (parsed.removed) {
      // Crash between tombstone and unlink: finish the close now.
      fs::remove(path, ec);
      ++report.tombstones;
      PT_LOG(Info) << "journal: completing close of study '"
                   << parsed.study.name << "' (tombstoned journal)";
      continue;
    }

    const std::string expected = journal_file_name(parsed.study.name);
    if (path.filename().string() != expected) {
      quarantine(path, report, "file name does not match study '" +
                                   parsed.study.name + "' (expected " +
                                   expected + ")");
      continue;
    }
    const auto duplicate = std::find_if(
        report.studies.begin(), report.studies.end(),
        [&](const RecoveredStudy& s) { return s.name == parsed.study.name; });
    if (duplicate != report.studies.end()) {
      quarantine(path, report,
                 "duplicate study '" + parsed.study.name + "'");
      continue;
    }

    // Overlay the journaled overrides on the daemon's base configuration —
    // the same merge open_study performed originally.
    tracking::SessionConfig merged = base;
    merged.clustering.dbscan.eps = parsed.study.config.clustering.dbscan.eps;
    merged.clustering.dbscan.min_pts =
        parsed.study.config.clustering.dbscan.min_pts;
    merged.clustering.min_cluster_time_fraction =
        parsed.study.config.clustering.min_cluster_time_fraction;
    merged.resilience = parsed.study.config.resilience;
    parsed.study.config = std::move(merged);

    parsed.study.records += 1;  // the create record
    parsed.study.bytes = parsed.good_offset;
    report.deduped += parsed.deduped;
    ++report.recovered;
    PT_COUNTER("journal_recovered", 1.0);
    PT_LOG(Info) << "journal: recovered study '" << parsed.study.name
                 << "' (" << parsed.study.entries.size() << " entries"
                 << (parsed.study.truncated ? ", tail truncated" : "")
                 << ") from " << path.string();
    report.studies.push_back(std::move(parsed.study));
  }
  return report;
}

}  // namespace perftrack::serve
