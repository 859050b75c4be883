#include "paraver/prv.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/strings.hpp"

namespace perftrack::paraver {

namespace {

constexpr double kNsPerSecond = 1e9;

std::uint64_t to_ns(double seconds) {
  return static_cast<std::uint64_t>(std::llround(seconds * kNsPerSecond));
}

double to_seconds(std::uint64_t ns) {
  return static_cast<double>(ns) / kNsPerSecond;
}

std::optional<std::uint64_t> try_parse_u64(std::string_view text) {
  std::uint64_t value = 0;
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    return std::nullopt;
  return value;
}

}  // namespace

namespace detail {

void write_prv_streams(std::ostream& prv, std::ostream& pcf,
                       const trace::Trace& trace) {
  PcfConfig config;
  config.application = trace.application();

  const std::uint32_t tasks = trace.num_tasks();
  const std::uint64_t duration = to_ns(trace.end_time());

  // Header: one node with `tasks` cpus, one application with `tasks`
  // tasks of one thread each, every task on node 1.
  prv << "#Paraver (01/01/2026 at 00:00):" << duration << "_ns:1(" << tasks
      << "):1:" << tasks << "(";
  for (std::uint32_t t = 0; t < tasks; ++t) {
    if (t) prv << ",";
    prv << "1:1";
  }
  prv << ")\n";

  // Records must be emitted in global time order for Paraver proper; we
  // sort (time, task) keys of burst boundaries.
  struct Record {
    std::uint64_t time;
    std::uint32_t task;
    std::string text;
  };
  std::vector<Record> records;
  records.reserve(trace.burst_count() * 2);

  for (const trace::Burst& burst : trace.bursts()) {
    const std::uint64_t begin = to_ns(burst.begin_time);
    const std::uint64_t end = to_ns(burst.end_time());
    const int cpu = static_cast<int>(burst.task) + 1;
    const int task1 = static_cast<int>(burst.task) + 1;

    std::ostringstream state;
    state << "1:" << cpu << ":1:" << task1 << ":1:" << begin << ":" << end
          << ":" << kStateRunning;
    records.push_back({begin, burst.task, state.str()});

    std::ostringstream event;
    event << "2:" << cpu << ":1:" << task1 << ":1:" << end;
    auto add = [&event](std::uint64_t type, std::uint64_t value) {
      event << ":" << type << ":" << value;
    };
    add(kEventInstructions, static_cast<std::uint64_t>(std::llround(
                                burst.counters.get(
                                    trace::Counter::Instructions))));
    add(kEventCycles, static_cast<std::uint64_t>(std::llround(
                          burst.counters.get(trace::Counter::Cycles))));
    add(kEventL1Misses, static_cast<std::uint64_t>(std::llround(
                            burst.counters.get(
                                trace::Counter::L1DMisses))));
    add(kEventL2Misses, static_cast<std::uint64_t>(std::llround(
                            burst.counters.get(trace::Counter::L2Misses))));
    add(kEventTlbMisses, static_cast<std::uint64_t>(std::llround(
                             burst.counters.get(
                                 trace::Counter::TlbMisses))));
    if (burst.callstack != trace::kUnknownCallstack) {
      const trace::SourceLocation& loc =
          trace.callstacks().resolve(burst.callstack);
      add(kEventCaller, config.intern_caller(loc));
    }
    records.push_back({end, burst.task, event.str()});
  }

  std::stable_sort(records.begin(), records.end(),
                   [](const Record& a, const Record& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.task < b.task;
                   });
  for (const Record& record : records) prv << record.text << "\n";
  if (!prv) throw IoError("prv write failed");

  write_pcf(pcf, config);
}

trace::Trace read_prv_streams(std::istream& prv, std::istream& pcf,
                              Diagnostics& diags) {
  PcfConfig config = read_pcf(pcf, diags);

  std::string line;
  if (!std::getline(prv, line) || !starts_with(trim(line), "#Paraver")) {
    // Without a header there is no task count: fatal in both modes.
    if (diags.is_lenient())
      diags.error(1, "bad-magic", "missing #Paraver header");
    throw ParseError("missing #Paraver header");
  }

  // Header: "#Paraver (...):<duration>:<nodes>(...):<napps>:<ntasks>(...)".
  // We need the task count: the 5th top-level colon field (date contains
  // a colon inside parentheses, so split with nesting awareness).
  std::vector<std::string> fields;
  {
    std::string current;
    int depth = 0;
    for (char c : line) {
      if (c == '(') ++depth;
      if (c == ')') --depth;
      if (c == ':' && depth == 0) {
        fields.push_back(current);
        current.clear();
      } else {
        current += c;
      }
    }
    fields.push_back(current);
  }
  // Header problems are fatal in both modes (without a task count the rest
  // of the file cannot be interpreted); lenient mode still records a
  // structured diagnostic before aborting.
  auto fatal_header = [&](const std::string& message) -> ParseError {
    if (diags.is_lenient()) diags.error(1, "bad-header", message);
    return ParseError(message);
  };
  if (fields.size() < 5) throw fatal_header("truncated #Paraver header");
  std::string task_field = fields[4];
  std::size_t paren = task_field.find('(');
  if (paren == std::string::npos)
    throw fatal_header("malformed task list in #Paraver header");
  auto task_count = try_parse_u64(trim(task_field.substr(0, paren)));
  if (!task_count)
    throw fatal_header("bad task count in #Paraver header");
  if (*task_count == 0) throw fatal_header("header declares zero tasks");
  if (*task_count > trace::kMaxTasks)
    throw fatal_header("header declares " + std::to_string(*task_count) +
                       " tasks, above the limit of " +
                       std::to_string(trace::kMaxTasks));
  const auto num_tasks = static_cast<std::uint32_t>(*task_count);

  trace::Trace out(config.application.empty() ? "paraver-import"
                                              : config.application,
                   num_tasks);
  if (!config.application.empty()) out.set_label(config.application);

  // Open running-state intervals per task, waiting for their counter event.
  struct Open {
    std::uint64_t begin = 0, end = 0;
    bool active = false;
  };
  std::vector<Open> open(num_tasks);
  int line_no = 1;

  auto flush_burst = [&](std::uint32_t task, const Open& interval,
                         const std::map<std::uint64_t, std::uint64_t>&
                             events) {
    trace::Burst burst;
    burst.task = task;
    burst.begin_time = to_seconds(interval.begin);
    burst.duration = to_seconds(interval.end - interval.begin);
    auto counter = [&](std::uint64_t type, trace::Counter c) {
      auto it = events.find(type);
      if (it != events.end())
        burst.counters.set(c, static_cast<double>(it->second));
    };
    counter(kEventInstructions, trace::Counter::Instructions);
    counter(kEventCycles, trace::Counter::Cycles);
    counter(kEventL1Misses, trace::Counter::L1DMisses);
    counter(kEventL2Misses, trace::Counter::L2Misses);
    counter(kEventTlbMisses, trace::Counter::TlbMisses);
    auto caller_it = events.find(kEventCaller);
    if (caller_it != events.end()) {
      const trace::SourceLocation* loc = config.caller(caller_it->second);
      if (loc == nullptr) {
        // Lenient repair: keep the burst, drop the unresolvable call site.
        diags.error(line_no, "dangling-caller",
                    "caller value " + std::to_string(caller_it->second) +
                        " missing from the .pcf dictionary");
      } else {
        burst.callstack = out.callstacks().intern(*loc);
      }
    }
    try {
      out.add_burst(burst);
    } catch (const PreconditionError& error) {
      diags.error(line_no, "bad-burst", error.what());
    }
  };

  while (std::getline(prv, line)) {
    ++line_no;
    std::string_view text = trim(line);
    if (text.empty() || text.front() == '#') continue;
    auto fields2 = split(text, ':');
    if (fields2.empty()) continue;
    if (fields2[0] == "3" || fields2[0] == "c") continue;  // comms et al.
    diags.count_record();

    if (fields2[0] == "1") {
      if (fields2.size() != 8) {
        diags.error(line_no, "bad-state-record",
                    "state record needs 8 fields");
        continue;
      }
      auto task_value = try_parse_u64(fields2[3]);
      if (!task_value || *task_value == 0 || *task_value > num_tasks) {
        diags.error(line_no, "bad-state-record",
                    "task out of range: " + fields2[3]);
        continue;
      }
      auto task = static_cast<std::uint32_t>(*task_value - 1);
      auto state = try_parse_u64(fields2[7]);
      auto begin = try_parse_u64(fields2[5]);
      auto end = try_parse_u64(fields2[6]);
      if (!state || !begin || !end) {
        diags.error(line_no, "bad-state-record",
                    "bad number in state record");
        continue;
      }
      if (*state != static_cast<std::uint64_t>(kStateRunning))
        continue;  // only running intervals are bursts
      if (*end < *begin) {
        diags.error(line_no, "bad-state-record",
                    "state interval ends before it begins");
        continue;
      }
      open[task].begin = *begin;
      open[task].end = *end;
      open[task].active = true;
    } else if (fields2[0] == "2") {
      if (fields2.size() < 8 || (fields2.size() - 6) % 2 != 0) {
        diags.error(line_no, "bad-event-record",
                    "event record needs time + (type,value) pairs");
        continue;
      }
      auto task_value = try_parse_u64(fields2[3]);
      if (!task_value || *task_value == 0 || *task_value > num_tasks) {
        diags.error(line_no, "bad-event-record",
                    "task out of range: " + fields2[3]);
        continue;
      }
      auto task = static_cast<std::uint32_t>(*task_value - 1);
      auto time = try_parse_u64(fields2[5]);
      if (!time) {
        diags.error(line_no, "bad-event-record",
                    "bad event time: " + fields2[5]);
        continue;
      }
      std::map<std::uint64_t, std::uint64_t> events;
      bool fields_ok = true;
      for (std::size_t i = 6; i + 1 < fields2.size(); i += 2) {
        auto type = try_parse_u64(fields2[i]);
        auto value = try_parse_u64(fields2[i + 1]);
        if (!type || !value) {
          fields_ok = false;
          break;
        }
        events[*type] = *value;
      }
      if (!fields_ok) {
        diags.error(line_no, "bad-event-record",
                    "bad number in event (type,value) pairs");
        continue;
      }
      // Counter events at the end of an open running interval close the
      // burst (the Extrae convention).
      if (open[task].active && *time == open[task].end &&
          events.count(kEventInstructions)) {
        flush_burst(task, open[task], events);
        open[task].active = false;
      }
    } else {
      diags.error(line_no, "unknown-record",
                  "unknown record kind '" + fields2[0] + "'");
    }
  }
  if (prv.bad()) throw io_error("prv read failed", diags.file());
  diags.finish();
  out.validate();
  return out;
}

trace::Trace read_prv_streams(std::istream& prv, std::istream& pcf) {
  Diagnostics diags;
  return read_prv_streams(prv, pcf, diags);
}

}  // namespace detail

void save_prv(const std::string& base_path, const trace::Trace& trace) {
  PT_FAILPOINT("save_prv");
  errno = 0;
  std::ofstream prv(base_path + ".prv");
  if (!prv) throw io_error("cannot open for writing", base_path + ".prv");
  errno = 0;
  std::ofstream pcf(base_path + ".pcf");
  if (!pcf) throw io_error("cannot open for writing", base_path + ".pcf");
  detail::write_prv_streams(prv, pcf, trace);
}

trace::Trace load_prv(const std::string& base_path, Diagnostics& diags) {
  PT_FAILPOINT("load_prv");
  diags.set_file(base_path + ".prv");
  errno = 0;
  std::ifstream prv(base_path + ".prv");
  if (!prv) throw io_error("cannot open for reading", base_path + ".prv");
  errno = 0;
  std::ifstream pcf(base_path + ".pcf");
  if (!pcf) throw io_error("cannot open for reading", base_path + ".pcf");
  return detail::read_prv_streams(prv, pcf, diags);
}

trace::Trace load_prv(const std::string& base_path) {
  Diagnostics diags;
  return load_prv(base_path, diags);
}

}  // namespace perftrack::paraver
