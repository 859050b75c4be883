// Fuzz target for journal recovery: arbitrary bytes written as one study's
// journal in a scratch state dir, then recover_state_dir, which must never
// throw — a damaged journal is truncated or quarantined, never fatal to
// the boot. Any exception, sanitizer abort or crash is a finding. The
// journal is on-disk input a crash (or an operator) can leave in any
// state, so recovery is a trust boundary like the request parser.

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "fuzz_driver.hpp"
#include "serve/journal.hpp"

namespace {

namespace fs = std::filesystem;
using perftrack::serve::JournalConfig;

constexpr const char* kStudy = "fuzz study";

/// The scratch state dir, removed at exit. Recovery diagnostics are
/// expected on every damaged input, so logging is silenced.
struct StateDir {
  fs::path path = fs::temp_directory_path() /
                  ("pt_fuzz_journal_" + std::to_string(::getpid()));

  StateDir() { perftrack::set_log_level(perftrack::LogLevel::Off); }
  ~StateDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }

  /// An empty state dir; recovery may have renamed or deleted the
  /// previous input's file.
  JournalConfig reset() const {
    fs::remove_all(path);
    fs::create_directories(path);
    JournalConfig config;
    config.directory = path.string();
    config.fsync = perftrack::serve::FsyncMode::Off;
    return config;
  }

  fs::path journal() const {
    return path / perftrack::serve::journal_file_name(kStudy);
  }
};

const StateDir& state_dir() {
  static const StateDir dir;
  return dir;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const StateDir& dir = state_dir();
  const JournalConfig config = dir.reset();
  {
    std::ofstream out(dir.journal(), std::ios::binary);
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  }
  perftrack::serve::recover_state_dir(config,
                                      perftrack::tracking::SessionConfig{});
  return 0;
}

std::vector<std::string> fuzz_seed_corpus() {
  using namespace perftrack::serve;
  const StateDir& dir = state_dir();
  const JournalConfig config = dir.reset();
  {
    perftrack::tracking::SessionConfig session;
    session.clustering.dbscan.eps = 0.05;
    session.resilience.lenient = true;
    auto journal = Journal::create(config, kStudy, session);
    AppendEntry path_entry;
    path_entry.label = "runs/wrf_128.ptt";
    path_entry.seq = 1;
    journal->append(path_entry);
    AppendEntry inline_entry;
    inline_entry.kind = AppendEntry::Kind::Inline;
    inline_entry.label = "E2";
    inline_entry.detail =
        "#PTT 1\napp fuzz-app\ntasks 1\n"
        "callstack 1 10 solver.c compute kernel\n"
        "burst 0 0.0 0.1 1 1000 500 10 5 1\n";
    inline_entry.seq = 2;
    journal->append(inline_entry);
    AppendEntry gap;
    gap.kind = AppendEntry::Kind::Gap;
    gap.label = "E3";
    gap.detail = "node failure";
    journal->append(gap);
  }
  std::ostringstream bytes;
  bytes << std::ifstream(dir.journal(), std::ios::binary).rdbuf();
  const std::string valid = bytes.str();

  std::string truncated = valid.substr(0, valid.size() - 7);
  std::string flipped = valid;
  flipped[flipped.size() / 2] ^= 0x20;
  return {valid, truncated, flipped, valid.substr(0, 8), "PTJL", ""};
}
