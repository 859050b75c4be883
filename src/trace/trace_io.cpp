#include "trace/trace_io.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/strings.hpp"
#include "obs/telemetry.hpp"

namespace perftrack::trace {

namespace {

constexpr std::string_view kMagic = "#PTT 1";

std::optional<std::uint64_t> parse_uint(std::string_view text) {
  std::uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                   value);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    return std::nullopt;
  return value;
}

/// The most fields any record splits into: a burst's four plus counters.
constexpr std::size_t kMaxFields = 4 + kCounterCount;

/// Up to kMaxFields fields of one record, held in place: no allocation
/// per line.
struct Fields {
  std::array<std::string_view, kMaxFields> field;
  std::size_t count = 0;

  std::size_t size() const { return count; }
  std::string_view operator[](std::size_t i) const { return field[i]; }
};

/// Split `text` into at most `max_fields` (<= kMaxFields) space-separated
/// fields; the last field absorbs the remainder (so function names may
/// contain spaces).
Fields fields_of(std::string_view text, std::size_t max_fields) {
  Fields out;
  std::size_t pos = 0;
  while (pos < text.size() && out.count + 1 < max_fields) {
    while (pos < text.size() && text[pos] == ' ') ++pos;
    if (pos >= text.size()) break;
    std::size_t end = text.find(' ', pos);
    if (end == std::string_view::npos) end = text.size();
    out.field[out.count++] = text.substr(pos, end - pos);
    pos = end;
  }
  while (pos < text.size() && text[pos] == ' ') ++pos;
  if (pos < text.size()) out.field[out.count++] = trim(text.substr(pos));
  return out;
}

/// The longest burst record: "burst", a uint32 task and callstack of at
/// most 10 digits each, seven doubles of at most 24 characters each in
/// %.17g ("-1.2345678901234567e-308"), nine separators and the newline.
constexpr std::size_t kMaxBurstRecord = 5 + 2 * 10 + 7 * 24 + 9 + 1;

/// write_trace hands the stream burst records in blocks of about this size.
constexpr std::size_t kBlockBytes = 64 * 1024;

}  // namespace

void append_burst_record(std::string& out, const Burst& burst) {
  std::array<char, kMaxBurstRecord> record{};
  char* const end = record.data() + record.size();
  char* p = record.data();
  auto put_uint = [&](std::uint32_t value) {
    *p++ = ' ';
    p = std::to_chars(p, end, value).ptr;
  };
  auto put_double = [&](double value) {
    *p++ = ' ';
    p = std::to_chars(p, end, value, std::chars_format::general, 17).ptr;
  };
  std::memcpy(p, "burst", 5);
  p += 5;
  put_uint(burst.task);
  put_double(burst.begin_time);
  put_double(burst.duration);
  put_uint(burst.callstack);
  for (std::size_t i = 0; i < kCounterCount; ++i)
    put_double(burst.counters.get(static_cast<Counter>(i)));
  *p++ = '\n';
  out.append(record.data(), static_cast<std::size_t>(p - record.data()));
}

void write_trace(std::ostream& out, const Trace& trace) {
  PT_SPAN("write_trace");
  out << kMagic << '\n';
  out << "app " << trace.application() << '\n';
  out << "label " << trace.label() << '\n';
  out << "tasks " << trace.num_tasks() << '\n';
  for (const auto& [key, value] : trace.attributes())
    out << "attr " << key << ' ' << value << '\n';

  const CallstackTable& cs = trace.callstacks();
  for (CallstackId id = 1; id < cs.size(); ++id) {
    const SourceLocation& loc = cs.resolve(id);
    out << "callstack " << id << ' ' << loc.line << ' ' << loc.file << ' '
        << loc.function << '\n';
  }

  std::string block;
  block.reserve(kBlockBytes + kMaxBurstRecord);
  for (const Burst& b : trace.bursts()) {
    append_burst_record(block, b);
    if (block.size() >= kBlockBytes) {
      out.write(block.data(), static_cast<std::streamsize>(block.size()));
      block.clear();
    }
  }
  out.write(block.data(), static_cast<std::streamsize>(block.size()));
  if (!out) throw io_error("trace write failed", "<stream>");
}

void save_trace(const std::string& path, const Trace& trace) {
  PT_SPAN("save_trace");
  PT_FAILPOINT("save_trace");
  errno = 0;
  std::ofstream out(path);
  if (!out) throw io_error("cannot open for writing", path);
  try {
    write_trace(out, trace);
  } catch (const IoError&) {
    // Rethrow with the path (the stream writer cannot know it).
    throw io_error("trace write failed", path);
  }
  out.close();
  if (!out) throw io_error("trace write failed", path);
}

namespace {

/// Largest task count, task id or callstack line a record may give.
constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();

/// One burst record as read, before its callstack id is remapped.
struct RawBurst {
  std::uint32_t task;
  double begin, duration;
  std::uint64_t callstack;
  std::array<double, kCounterCount> counters;
  int line_no;
};

/// Why the fields of a burst record did not parse.
enum class BurstFields { Ok, WrongCount, BadNumber };

/// Parse `text`, what follows "burst " in a trimmed burst record, into
/// `out` (all but its line number). The fields are those fields_of splits:
/// runs of non-space bytes, the last one trimmed of any whitespace. Each
/// must be a number std::from_chars consumes whole. A number holds no
/// whitespace, so from_chars runs over the rest of the record and stops at
/// the field's end exactly when the field is a number: no split is needed
/// first. The chunk scans and the general path both read burst records
/// through this one function.
BurstFields parse_burst_fields(std::string_view text, RawBurst& out) {
  const char* p = text.data();
  const char* const end = text.data() + text.size();
  const auto space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  bool numbers = true;
  // Parse the next field into `value`; false when the record has no more.
  auto next_field = [&](auto& value, bool last) {
    while (p != end && *p == ' ') ++p;
    if (p == end) return false;
    if (last) p = std::find_if_not(p, end, space);
    const auto [stop, ec] = std::from_chars(p, end, value);
    const bool whole =
        ec == std::errc{} && (last ? std::all_of(stop, end, space)
                                   : stop == end || *stop == ' ');
    if (whole) {
      p = stop;
    } else {
      numbers = false;
      p = last ? end : std::find(p, end, ' ');
    }
    return true;
  };
  std::uint64_t task = 0;
  bool complete = next_field(task, false) && next_field(out.begin, false) &&
                  next_field(out.duration, false) &&
                  next_field(out.callstack, false);
  for (std::size_t i = 0; complete && i < kCounterCount; ++i)
    complete = next_field(out.counters[i], i + 1 == kCounterCount);
  if (!complete) return BurstFields::WrongCount;
  if (!numbers || task > kMaxU32) return BurstFields::BadNumber;
  out.task = static_cast<std::uint32_t>(task);
  return BurstFields::Ok;
}

/// A line a chunk scan left for the serial replay.
struct DeferredLine {
  int line_no;  ///< within its chunk, from 1
  std::string_view text;
};

/// What the scan of one chunk hands the serial replay.
struct ChunkScan {
  std::vector<RawBurst> bursts;        ///< burst records that parsed
  std::vector<DeferredLine> deferred;  ///< every other record
  int lines = 0;
};

/// Bytes per burst record the scan reserves for: write_trace's records run
/// from about 60 to 200 bytes.
constexpr std::size_t kBurstRecordBytes = 96;

/// Scan one chunk. Lines are split exactly as std::getline splits a
/// stream: at each '\n', with an unterminated last line kept. Blank and
/// '#' lines are skipped uncounted, as the general path skips them; a burst
/// record that parses is read here, and every other line is deferred. The
/// text's first line is kept raw for the magic check.
ChunkScan scan_chunk(std::string_view chunk, bool first) {
  ChunkScan scan;
  scan.bursts.reserve(chunk.size() / kBurstRecordBytes);
  RawBurst burst{};
  while (!chunk.empty()) {
    const std::size_t end = chunk.find('\n');
    const std::string_view line = chunk.substr(0, end);
    chunk.remove_prefix(end == std::string_view::npos ? chunk.size()
                                                      : end + 1);
    ++scan.lines;
    if (first && scan.lines == 1) {
      scan.deferred.push_back({1, line});
      continue;
    }
    const std::string_view text = trim(line);
    if (text.empty() || text.front() == '#') continue;
    if (starts_with(text, "burst ") &&
        parse_burst_fields(text.substr(6), burst) == BurstFields::Ok) {
      burst.line_no = scan.lines;
      scan.bursts.push_back(burst);
    } else {
      scan.deferred.push_back({scan.lines, text});
    }
  }
  return scan;
}

/// Visit every burst record in line order: the chunks' bursts, merged by
/// line number with those the general path read.
template <typename Visit>
void for_each_raw_burst(const std::vector<ChunkScan>& scans,
                        const std::vector<RawBurst>& general, Visit&& visit) {
  auto next = general.begin();
  int offset = 0;
  for (const ChunkScan& scan : scans) {
    for (RawBurst burst : scan.bursts) {
      burst.line_no += offset;
      for (; next != general.end() && next->line_no < burst.line_no; ++next)
        visit(*next);
      visit(burst);
    }
    offset += scan.lines;
  }
  for (; next != general.end(); ++next) visit(*next);
}

/// The parser behind every entry point: the chunk scans on `pool`, then the
/// serial replay of the deferred lines through the general path, then
/// assembly.
Trace parse_text(std::string_view buffer, Diagnostics& diags,
                 ThreadPool& pool) {
  if (buffer.empty()) {
    diags.error(0, "bad-magic", "missing #PTT 1 magic header");
    throw ParseError("empty trace stream");
  }
  const std::vector<std::size_t> starts =
      chunk_starts(buffer, pool.thread_count());
  std::vector<ChunkScan> scans(starts.size() + 1);
  pool.parallel_for(0, scans.size(), [&](std::size_t c) {
    const std::size_t begin = c == 0 ? 0 : starts[c - 1];
    const std::size_t end = c == starts.size() ? buffer.size() : starts[c];
    scans[c] = scan_chunk(buffer.substr(begin, end - begin), c == 0);
  });
  PT_COUNTER("trace_parse_chunks", static_cast<double>(scans.size()));

  int line_no = 0;
  std::optional<std::string> app;
  std::optional<std::string> label;
  std::optional<std::uint32_t> tasks;
  std::map<std::string, std::string> attrs;
  // Callstack ids in the file are remapped through interning on load.
  std::map<std::uint64_t, SourceLocation> file_callstacks;
  // Burst records the general path read: a lenient read's first line at
  // most, since the chunk scans take every other burst record that parses.
  std::vector<RawBurst> general_bursts;

  // In lenient mode a record that fails to parse is reported and skipped;
  // in strict mode diags.error() throws at the first report.
  auto handle_record = [&](std::string_view text) {
    diags.count_record();
    if (starts_with(text, "app ")) {
      if (app) {
        diags.report(diags.is_lenient() ? Severity::Warning : Severity::Error,
                     line_no, "duplicate-record",
                     "duplicate 'app' record (keeping the first)");
        return;
      }
      app = std::string(trim(text.substr(4)));
    } else if (starts_with(text, "label ")) {
      if (label) {
        diags.report(diags.is_lenient() ? Severity::Warning : Severity::Error,
                     line_no, "duplicate-record",
                     "duplicate 'label' record (keeping the first)");
        return;
      }
      label = std::string(trim(text.substr(6)));
    } else if (starts_with(text, "tasks ")) {
      if (tasks) {
        diags.report(diags.is_lenient() ? Severity::Warning : Severity::Error,
                     line_no, "duplicate-record",
                     "duplicate 'tasks' record (keeping the first)");
        return;
      }
      auto value = parse_uint(trim(text.substr(6)));
      if (!value || *value == 0 || *value > kMaxTasks) {
        diags.error(line_no, "bad-number",
                    "bad task count: " + std::string(trim(text.substr(6))));
        return;
      }
      tasks = static_cast<std::uint32_t>(*value);
    } else if (starts_with(text, "attr ")) {
      auto f = fields_of(text.substr(5), 2);
      if (f.size() != 2) {
        diags.error(line_no, "bad-attr", "bad attr");
        return;
      }
      std::string key(f[0]);
      if (attrs.count(key) != 0) {
        diags.report(diags.is_lenient() ? Severity::Warning : Severity::Error,
                     line_no, "duplicate-attr",
                     "duplicate attr '" + key + "' (keeping the first)");
        return;
      }
      attrs[key] = std::string(f[1]);
    } else if (starts_with(text, "callstack ")) {
      auto f = fields_of(text.substr(10), 4);
      if (f.size() != 4) {
        diags.error(line_no, "bad-callstack", "bad callstack record");
        return;
      }
      auto id = parse_uint(f[0]);
      auto loc_line = parse_uint(f[1]);
      if (!id || !loc_line || *loc_line > kMaxU32) {
        diags.error(line_no, "bad-callstack",
                    "bad number in callstack record");
        return;
      }
      if (file_callstacks.count(*id) != 0) {
        diags.report(diags.is_lenient() ? Severity::Warning : Severity::Error,
                     line_no, "duplicate-callstack",
                     "duplicate callstack id " + std::to_string(*id) +
                         " (keeping the first)");
        return;
      }
      SourceLocation loc;
      loc.line = static_cast<std::uint32_t>(*loc_line);
      loc.file = std::string(f[2]);
      loc.function = std::string(f[3]);
      file_callstacks[*id] = std::move(loc);
    } else if (starts_with(text, "burst ")) {
      RawBurst rb;
      switch (parse_burst_fields(text.substr(6), rb)) {
        case BurstFields::WrongCount:
          diags.error(line_no, "bad-burst",
                      "bad burst record (expected " +
                          std::to_string(4 + kCounterCount) + " fields)");
          return;
        case BurstFields::BadNumber:
          diags.error(line_no, "bad-burst", "bad number in burst record");
          return;
        case BurstFields::Ok:
          break;
      }
      rb.line_no = line_no;
      general_bursts.push_back(rb);
    } else {
      diags.error(line_no, "unknown-record",
                  "unknown record: " + std::string(text));
    }
  };

  // The replay, in line order. Before each deferred line, the chunk's
  // bursts above it are counted as the general path would have counted
  // them, so a strict error or an exhausted budget throws with the
  // same record_count().
  int offset = 0;
  for (const ChunkScan& scan : scans) {
    std::size_t counted = 0;
    auto count_bursts_before = [&](int local_line) {
      for (; counted < scan.bursts.size() &&
             scan.bursts[counted].line_no < local_line;
           ++counted)
        diags.count_record();
    };
    for (const DeferredLine& deferred : scan.deferred) {
      count_bursts_before(deferred.line_no);
      line_no = offset + deferred.line_no;
      if (line_no != 1) {
        handle_record(deferred.text);
      } else if (trim(deferred.text) != kMagic) {
        diags.error(line_no, "bad-magic", "missing #PTT 1 magic header");
        // Lenient: the first line may still be a payload record; feed it
        // to the dispatcher unless it reads as a comment.
        const std::string_view first = trim(deferred.text);
        if (!first.empty() && first.front() != '#') handle_record(first);
      }
    }
    count_bursts_before(std::numeric_limits<int>::max());
    offset += scan.lines;
  }

  std::size_t burst_count = general_bursts.size();
  for (const ChunkScan& scan : scans) burst_count += scan.bursts.size();

  if (!app) {
    diags.report(diags.is_lenient() ? Severity::Warning : Severity::Error, 0,
                 "missing-app", "trace missing 'app' record");
    app = "unknown";
  }
  if (!tasks) {
    // Repairable when bursts tell us how many tasks there are.
    std::uint32_t max_task = 0;
    for_each_raw_burst(scans, general_bursts, [&](const RawBurst& rb) {
      max_task = std::max(max_task, rb.task);
    });
    if (burst_count == 0 || max_task >= kMaxTasks) {
      diags.report(diags.is_lenient() ? Severity::Warning : Severity::Error,
                   0, "missing-tasks", "trace missing 'tasks' record");
      throw ParseError(
          burst_count == 0
              ? "trace unusable: no 'tasks' record and no bursts to infer "
                "the task count from"
              : "trace unusable: no 'tasks' record, and the bursts name "
                "task " + std::to_string(max_task) + ", above the limit of " +
                std::to_string(kMaxTasks) + " tasks");
    }
    diags.report(diags.is_lenient() ? Severity::Warning : Severity::Error, 0,
                 "missing-tasks",
                 "trace missing 'tasks' record (inferred " +
                     std::to_string(max_task + 1) + " from bursts)");
    tasks = max_task + 1;
  }

  Trace trace(*app, *tasks);
  if (label) trace.set_label(*label);
  for (const auto& [key, value] : attrs) trace.set_attribute(key, value);

  // File callstack id -> interned id, sorted by file id. Id 0 maps to the
  // unknown location unless the file redeclares it.
  std::vector<std::pair<std::uint64_t, CallstackId>> id_map;
  id_map.reserve(file_callstacks.size() + 1);
  if (!file_callstacks.contains(0)) id_map.emplace_back(0, kUnknownCallstack);
  for (const auto& [file_id, loc] : file_callstacks)
    id_map.emplace_back(file_id, trace.callstacks().intern(loc));

  trace.reserve(burst_count);
  for_each_raw_burst(scans, general_bursts, [&](const RawBurst& rb) {
    const auto it = std::lower_bound(
        id_map.begin(), id_map.end(), rb.callstack,
        [](const auto& entry, std::uint64_t id) { return entry.first < id; });
    if (it == id_map.end() || it->first != rb.callstack) {
      diags.error(rb.line_no, "dangling-callstack",
                  "burst references undeclared callstack id " +
                      std::to_string(rb.callstack));
      return;
    }
    Burst b;
    b.task = rb.task;
    b.begin_time = rb.begin;
    b.duration = rb.duration;
    b.callstack = it->second;
    for (std::size_t i = 0; i < kCounterCount; ++i)
      b.counters.set(static_cast<Counter>(i), rb.counters[i]);
    try {
      trace.add_burst(b);
    } catch (const PreconditionError& error) {
      // Out-of-range task, negative duration or per-task time disorder.
      diags.error(rb.line_no, "bad-burst", error.what());
    }
  });
  diags.finish();
  trace.validate();
  return trace;
}

/// Everything left in `in`, in one buffer: one read when `size_hint` is
/// the input's size, doubling reads otherwise. Throws IoError when the
/// stream fails.
std::string read_all(std::istream& in, const std::string& file,
                     std::size_t size_hint) {
  constexpr std::size_t kFirstRead = 64 * 1024;
  std::string text;
  std::size_t size = 0;
  do {
    // One byte past the hint, so the read that finds the end needs no
    // growth.
    text.resize(std::max({2 * size, size_hint + 1, kFirstRead}));
    in.read(text.data() + size,
            static_cast<std::streamsize>(text.size() - size));
    size += static_cast<std::size_t>(in.gcount());
  } while (in);
  if (in.bad()) throw io_error("trace read failed", file);
  text.resize(size);
  return text;
}

}  // namespace

std::vector<std::size_t> chunk_starts(std::string_view text,
                                      std::size_t threads) {
  const std::size_t chunks = std::max<std::size_t>(
      1, std::min(threads, text.size() / kMinChunkBytes));
  std::vector<std::size_t> starts;
  std::size_t from = 0;
  for (std::size_t i = 1; i < chunks; ++i) {
    const std::size_t end =
        text.find('\n', std::max(from, i * text.size() / chunks));
    if (end == std::string_view::npos || end + 1 == text.size()) break;
    from = end + 1;
    starts.push_back(from);
  }
  return starts;
}

Trace read_trace(std::istream& in, Diagnostics& diags, ThreadPool& pool) {
  PT_SPAN("read_trace");
  const std::string text = read_all(in, diags.file(), 0);
  return parse_text(text, diags, pool);
}

Trace read_trace(std::string_view text, Diagnostics& diags, ThreadPool& pool) {
  PT_SPAN("read_trace");
  return parse_text(text, diags, pool);
}

Trace read_trace(std::istream& in) {
  Diagnostics diags;
  return read_trace(in, diags);
}

Trace load_trace(const std::string& path, Diagnostics& diags,
                 ThreadPool& pool) {
  PT_SPAN("load_trace");
  PT_FAILPOINT("load_trace");
  diags.set_file(path);
  Trace trace = [&] {
    // Opening and reading the file are part of the parse's span, so
    // load_trace keeps no self time of note.
    PT_SPAN("read_trace");
    errno = 0;
    std::ifstream in(path, std::ios::binary);
    if (!in) throw io_error("cannot open for reading", path);
    std::error_code no_size;
    const std::uintmax_t size = std::filesystem::file_size(path, no_size);
    const std::string text =
        read_all(in, path, no_size ? 0 : static_cast<std::size_t>(size));
    return parse_text(text, diags, pool);
  }();
  PT_COUNTER("traces_loaded", 1.0);
  PT_COUNTER("bursts_loaded", static_cast<double>(trace.burst_count()));
  return trace;
}

Trace load_trace(const std::string& path) {
  Diagnostics diags;
  return load_trace(path, diags);
}

}  // namespace perftrack::trace
