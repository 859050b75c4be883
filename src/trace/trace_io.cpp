#include "trace/trace_io.hpp"

#include <array>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <map>
#include <optional>
#include <ostream>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/strings.hpp"
#include "obs/telemetry.hpp"

namespace perftrack::trace {

namespace {

constexpr std::string_view kMagic = "#PTT 1";

std::optional<double> parse_double(std::string_view text) {
  // std::from_chars for double is available in GCC 11+.
  double value = 0.0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                   value);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    return std::nullopt;
  return value;
}

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

/// Lines of a stream, read with std::getline into one reused buffer.
class StreamLines {
public:
  explicit StreamLines(std::istream& in) : in_(in) {}

  bool next(std::string_view& line) {
    if (!std::getline(in_, buffer_)) return false;
    line = buffer_;
    return true;
  }
  bool failed() const { return in_.bad(); }

private:
  std::istream& in_;
  std::string buffer_;
};

/// Lines of text already in memory, split exactly as std::getline splits
/// a stream: at each '\n', with an unterminated last line kept.
class TextLines {
public:
  explicit TextLines(std::string_view text) : rest_(text) {}

  bool next(std::string_view& line) {
    if (rest_.empty()) return false;
    const std::size_t end = rest_.find('\n');
    line = rest_.substr(0, end);
    rest_.remove_prefix(end == std::string_view::npos ? rest_.size()
                                                      : end + 1);
    return true;
  }
  bool failed() const { return false; }

private:
  std::string_view rest_;
};

/// The parser core behind every entry point: one pass over `lines`.
template <typename Lines>
Trace parse_trace(Lines& lines, Diagnostics& diags) {
  PT_SPAN("read_trace");
  std::string_view line;
  int line_no = 0;

  std::optional<std::string> app;
  std::optional<std::string> label;
  std::optional<std::uint32_t> tasks;
  std::map<std::string, std::string> attrs;
  // Callstack ids in the file are remapped through interning on load.
  std::map<std::uint64_t, SourceLocation> file_callstacks;

  struct RawBurst {
    std::uint32_t task;
    double begin, duration;
    std::uint64_t callstack;
    std::array<double, kCounterCount> counters;
    int line_no;
  };
  std::vector<RawBurst> raw_bursts;

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
      if (!value) {
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
      if (!id || !loc_line) {
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
      auto f = fields_of(text.substr(6), 4 + kCounterCount);
      if (f.size() != 4 + kCounterCount) {
        diags.error(line_no, "bad-burst",
                    "bad burst record (expected " +
                        std::to_string(4 + kCounterCount) + " fields)");
        return;
      }
      RawBurst rb;
      rb.line_no = line_no;
      auto task = parse_uint(f[0]);
      auto begin = parse_double(f[1]);
      auto duration = parse_double(f[2]);
      auto callstack = parse_uint(f[3]);
      bool ok = task && begin && duration && callstack;
      for (std::size_t i = 0; i < kCounterCount; ++i) {
        auto value = parse_double(f[4 + i]);
        if (!value) ok = false;
        else rb.counters[i] = *value;
      }
      if (!ok) {
        diags.error(line_no, "bad-burst", "bad number in burst record");
        return;
      }
      rb.task = static_cast<std::uint32_t>(*task);
      rb.begin = *begin;
      rb.duration = *duration;
      rb.callstack = *callstack;
      raw_bursts.push_back(rb);
    } else {
      diags.error(line_no, "unknown-record",
                  "unknown record: " + std::string(text));
    }
  };

  if (!lines.next(line)) {
    diags.error(0, "bad-magic", "missing #PTT 1 magic header");
    throw ParseError("empty trace stream");
  }
  ++line_no;
  if (trim(line) != kMagic) {
    diags.error(line_no, "bad-magic", "missing #PTT 1 magic header");
    // Lenient: the first line may still be a payload record; feed it to the
    // dispatcher unless it reads as a comment.
    std::string_view text = trim(line);
    if (!text.empty() && text.front() != '#') handle_record(text);
  }

  while (lines.next(line)) {
    ++line_no;
    std::string_view text = trim(line);
    if (text.empty() || text.front() == '#') continue;
    handle_record(text);
  }
  if (lines.failed()) throw io_error("trace read failed", diags.file());

  if (!app) {
    diags.report(diags.is_lenient() ? Severity::Warning : Severity::Error, 0,
                 "missing-app", "trace missing 'app' record");
    app = "unknown";
  }
  if (!tasks) {
    // Repairable when bursts tell us how many tasks there are.
    std::uint32_t max_task = 0;
    for (const RawBurst& rb : raw_bursts)
      max_task = std::max(max_task, rb.task);
    if (raw_bursts.empty()) {
      diags.report(diags.is_lenient() ? Severity::Warning : Severity::Error,
                   0, "missing-tasks", "trace missing 'tasks' record");
      throw ParseError("trace unusable: no 'tasks' record and no bursts to "
                       "infer the task count from");
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

  std::map<std::uint64_t, CallstackId> id_map;
  id_map[0] = kUnknownCallstack;
  for (const auto& [file_id, loc] : file_callstacks)
    id_map[file_id] = trace.callstacks().intern(loc);

  for (const RawBurst& rb : raw_bursts) {
    auto it = id_map.find(rb.callstack);
    if (it == id_map.end()) {
      diags.error(rb.line_no, "dangling-callstack",
                  "burst references undeclared callstack id " +
                      std::to_string(rb.callstack));
      continue;
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
  }
  diags.finish();
  trace.validate();
  return trace;
}

}  // namespace

Trace read_trace(std::istream& in, Diagnostics& diags) {
  StreamLines lines(in);
  return parse_trace(lines, diags);
}

Trace read_trace(std::string_view text, Diagnostics& diags) {
  TextLines lines(text);
  return parse_trace(lines, diags);
}

Trace read_trace(std::istream& in) {
  Diagnostics diags;
  return read_trace(in, diags);
}

Trace load_trace(const std::string& path, Diagnostics& diags) {
  PT_SPAN("load_trace");
  PT_FAILPOINT("load_trace");
  diags.set_file(path);
  errno = 0;
  std::ifstream in(path);
  if (!in) throw io_error("cannot open for reading", path);
  Trace trace = read_trace(in, diags);
  PT_COUNTER("traces_loaded", 1.0);
  PT_COUNTER("bursts_loaded", static_cast<double>(trace.burst_count()));
  return trace;
}

Trace load_trace(const std::string& path) {
  Diagnostics diags;
  return load_trace(path, diags);
}

}  // namespace perftrack::trace
