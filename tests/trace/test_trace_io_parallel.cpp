// Exactness of the chunked .ptt reader. A text of more than 1 MiB splits
// into four chunks on a pool of four workers. Read that way, it must give
// the same trace (its write_trace bytes), the same diagnostics, the same
// record count and the same exception as read inline on a pool of one.
// Faults sit inside every chunk and on both sides of every chunk boundary,
// in strict mode, lenient mode and lenient mode with a budget of two
// errors.

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/diagnostics.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/telemetry.hpp"
#include "sim/studies.hpp"
#include "trace/trace_io.hpp"

namespace perftrack::trace {
namespace {

enum class Mode { Strict, Lenient, LenientTwoErrors };

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::Strict: return "strict";
    case Mode::Lenient: return "lenient";
    case Mode::LenientTwoErrors: return "lenient, max_errors 2";
  }
  return "";
}

/// Everything one parse produces.
struct Outcome {
  std::string trace;  ///< write_trace bytes, when the parse succeeds
  std::string error;  ///< the exception's type and text, when it throws
  std::string diagnostics;
  std::size_t records = 0;

  bool operator==(const Outcome&) const = default;
};

Outcome parse(std::string_view text, Mode mode, ThreadPool& pool) {
  Diagnostics diags = mode == Mode::Strict ? Diagnostics::strict()
                      : mode == Mode::Lenient
                          ? Diagnostics::lenient()
                          : Diagnostics::lenient(ErrorBudget{2});
  diags.set_file("chunked.ptt");
  Outcome out;
  try {
    std::ostringstream bytes;
    write_trace(bytes, read_trace(text, diags, pool));
    out.trace = bytes.str();
  } catch (const ParseError& error) {
    out.error = std::string("ParseError: ") + error.what();
  } catch (const Error& error) {
    out.error = std::string("Error: ") + error.what();
  }
  out.diagnostics = diags.to_string();
  out.records = diags.record_count();
  return out;
}

/// Parse `text` inline and in chunks and require one outcome.
void expect_exact(const std::string& text, Mode mode) {
  SCOPED_TRACE(mode_name(mode));
  const Outcome inline_read = parse(text, mode, ThreadPool::shared(1));
  const Outcome chunked = parse(text, mode, ThreadPool::shared(4));
  EXPECT_EQ(chunked.trace, inline_read.trace);
  EXPECT_EQ(chunked.error, inline_read.error);
  EXPECT_EQ(chunked.diagnostics, inline_read.diagnostics);
  EXPECT_EQ(chunked.records, inline_read.records);
}

// ---------------------------------------------------------------------------
// A fixed-width text: every line is padded with trailing spaces, which the
// reader trims, to kLineBytes bytes with its '\n'. Replacing a line then
// moves no chunk boundary, so a fault can be put exactly on one.

constexpr std::size_t kLineBytes = 128;
constexpr std::size_t kLines = 8400;  // 1,075,200 bytes: four chunks
constexpr std::size_t kHeaderLines = 7;
constexpr std::uint32_t kTasks = 4;

std::string burst_line(std::size_t i, std::uint32_t task, CallstackId cs) {
  Burst b;
  b.task = task;
  b.begin_time = 0.001 * static_cast<double>(i);
  b.duration = 0.0005 + 1e-7 * static_cast<double>(i % 97);
  b.callstack = cs;
  b.counters.set(Counter::Instructions, 1e6 + static_cast<double>(i));
  b.counters.set(Counter::Cycles, 2e6 + 0.25 * static_cast<double>(i));
  b.counters.set(Counter::L1DMisses, static_cast<double>(i % 1000));
  b.counters.set(Counter::L2Misses, static_cast<double>(i % 100));
  b.counters.set(Counter::TlbMisses, static_cast<double>(i % 10));
  std::string line;
  append_burst_record(line, b);
  line.pop_back();
  return line;
}

/// The burst record base_lines() puts on line `line`.
std::string canonical(std::size_t line) {
  return burst_line(line, static_cast<std::uint32_t>(line % kTasks),
                    line % 3 == 0 ? 2 : 1);
}

/// That record with field `field` (0 = task) replaced by `value`.
std::string with_field(std::size_t line, int field, const std::string& value) {
  std::string text = canonical(line);
  std::size_t begin = 6;
  for (int f = 0; f < field; ++f) begin = text.find(' ', begin) + 1;
  const std::size_t end = text.find(' ', begin);
  return text.replace(begin, end == std::string::npos ? std::string::npos
                                                      : end - begin,
                      value);
}

/// The lines of a valid trace: a header, then bursts of four tasks.
std::vector<std::string> base_lines() {
  std::vector<std::string> lines = {
      "#PTT 1",
      "app chunked",
      "label chunked run",
      "tasks 4",
      "attr platform Reference",
      "callstack 1 10 solver.c compute the kernel",
      "callstack 2 20 comm.c halo exchange",
  };
  for (std::size_t i = kHeaderLines; i < kLines; ++i)
    lines.push_back(canonical(i));
  return lines;
}

std::string join(const std::vector<std::string>& lines) {
  std::string text;
  text.reserve(lines.size() * kLineBytes);
  for (const std::string& line : lines) {
    text += line;
    if (line.size() + 1 < kLineBytes)
      text.append(kLineBytes - 1 - line.size(), ' ');
    text += '\n';
  }
  return text;
}

/// The line indexes a fault is put on: the middle of every chunk, and the
/// last line before and the first line after every chunk boundary.
std::vector<std::size_t> fault_lines() {
  const std::vector<std::size_t> starts =
      chunk_starts(join(base_lines()), 4);
  EXPECT_EQ(starts.size(), 3u);
  std::vector<std::size_t> lines;
  std::size_t chunk_begin = 0;
  for (std::size_t start : starts) {
    EXPECT_EQ(start % kLineBytes, 0u);
    const std::size_t first = start / kLineBytes;
    lines.push_back((chunk_begin + first) / 2);
    lines.push_back(first - 1);
    lines.push_back(first);
    chunk_begin = first;
  }
  lines.push_back((chunk_begin + kLines) / 2);
  return lines;
}

using Fault = std::function<std::string(std::size_t line)>;

/// The fault that gives field `field` of the line's burst record `value`.
Fault field_fault(int field, const std::string& value) {
  return [field, value](std::size_t line) {
    return with_field(line, field, value);
  };
}

/// Run every mode over `fault` placed on each fault line: one text per
/// line in strict mode, where the first fault throws, and one text with all
/// of them in the lenient modes. The boundaries must not move.
void check_fault(const std::string& name, const Fault& fault) {
  SCOPED_TRACE(name);
  const std::vector<std::string> base = base_lines();
  const std::vector<std::size_t> starts = chunk_starts(join(base), 4);
  std::vector<std::string> all = base;
  for (std::size_t line : fault_lines()) {
    SCOPED_TRACE("line " + std::to_string(line + 1));
    std::vector<std::string> one = base;
    one[line] = fault(line);
    all[line] = one[line];
    const std::string text = join(one);
    ASSERT_EQ(chunk_starts(text, 4), starts);
    expect_exact(text, Mode::Strict);
  }
  const std::string text = join(all);
  ASSERT_EQ(chunk_starts(text, 4), starts);
  expect_exact(text, Mode::Lenient);
  expect_exact(text, Mode::LenientTwoErrors);
}

TEST(TraceIoParallel, BurstFaultsReadAsInline) {
  check_fault("bad number", field_fault(1, "zero"));
  check_fault("double space", [](std::size_t l) {
    std::string text = canonical(l);
    return text.insert(text.find(' ', 6), " ");
  });
  check_fault("tab", [](std::size_t l) {
    std::string text = canonical(l);
    text[text.find(' ', 6)] = '\t';
    return text;
  });
  check_fault("trailing CR",
              [](std::size_t l) { return canonical(l) + "\r"; });
  check_fault("short record", [](std::size_t l) {
    const std::string text = canonical(l);
    return text.substr(0, text.rfind(' '));
  });
  check_fault("long record",
              [](std::size_t l) { return canonical(l) + " 7"; });
  check_fault("task out of range", field_fault(0, "9"));
  check_fault("task above 32 bits", field_fault(0, "4294967296"));
  check_fault("negative duration", field_fault(2, "-0.5"));
  check_fault("dangling callstack", field_fault(3, "77"));
  check_fault("inf begin", field_fault(1, "inf"));
  check_fault("nan duration", field_fault(2, "nan"));
  check_fault("nan counter", field_fault(6, "nan"));
  check_fault("plus sign", field_fault(4, "+1"));
  check_fault("hex", field_fault(5, "0x10"));
  check_fault("out of order", field_fault(1, "0.0001"));
}

TEST(TraceIoParallel, RecordFaultsReadAsInline) {
  check_fault("duplicate app", [](std::size_t) { return "app again"; });
  check_fault("duplicate label", [](std::size_t) { return "label again"; });
  check_fault("duplicate tasks", [](std::size_t) { return "tasks 3"; });
  check_fault("duplicate attr", [](std::size_t) { return "attr platform x"; });
  check_fault("duplicate callstack", [](std::size_t) {
    return "callstack 2 21 comm.c other";
  });
  check_fault("new callstack", [](std::size_t l) {
    return "callstack " + std::to_string(100 + l) + " 5 late.c late";
  });
  check_fault("unknown record", [](std::size_t) { return "whatisthis 1 2"; });
  check_fault("comment", [](std::size_t) { return "# a comment"; });
  check_fault("blank", [](std::size_t) { return ""; });
  check_fault("callstack line above 32 bits", [](std::size_t l) {
    return "callstack " + std::to_string(100 + l) + " 4294967296 x.c f";
  });
}

TEST(TraceIoParallel, CallstackDeclaredAfterItsBurstsReadsAsInline) {
  // Bursts in every chunk use callstack 3, which only a line on a fault
  // line declares.
  const std::vector<std::size_t> lines = fault_lines();
  for (std::size_t declared : lines) {
    SCOPED_TRACE("declared on line " + std::to_string(declared + 1));
    std::vector<std::string> text = base_lines();
    for (std::size_t user : lines)
      if (user != declared) text[user] = with_field(user, 3, "3");
    text[declared] = "callstack 3 30 late.c late";
    for (Mode mode : {Mode::Strict, Mode::Lenient, Mode::LenientTwoErrors})
      expect_exact(join(text), mode);
  }
}

TEST(TraceIoParallel, CommentsAndBlanksAroundEveryBoundary) {
  std::vector<std::string> lines = base_lines();
  const std::vector<std::size_t> starts = chunk_starts(join(lines), 4);
  for (std::size_t start : starts) {
    const std::size_t first = start / kLineBytes;
    lines[first - 2] = "# before the boundary";
    lines[first - 1] = "";
    lines[first] = "   ";
    lines[first + 1] = "# after the boundary";
    lines[first + 2] = "whatisthis";
  }
  const std::string text = join(lines);
  ASSERT_EQ(chunk_starts(text, 4), starts);
  for (Mode mode : {Mode::Strict, Mode::Lenient, Mode::LenientTwoErrors})
    expect_exact(text, mode);
}

TEST(TraceIoParallel, WholeTextFaultsReadAsInline) {
  const std::vector<std::string> base = base_lines();
  auto check = [](const std::string& name, const std::string& text) {
    SCOPED_TRACE(name);
    ASSERT_EQ(chunk_starts(text, 4).size(), 3u);
    for (Mode mode : {Mode::Strict, Mode::Lenient, Mode::LenientTwoErrors})
      expect_exact(text, mode);
  };
  std::vector<std::string> lines = base;
  lines[0] = "#PTT 2";
  check("bad magic", join(lines));
  lines = base;
  lines[0] = "app first";
  check("payload on the magic line", join(lines));
  lines = base;
  lines[1] = "# no app";
  check("missing app", join(lines));
  lines = base;
  lines[3] = "# no tasks";
  check("missing tasks", join(lines));
  lines = base;
  lines[3] = "tasks 0";
  check("zero tasks", join(lines));
  std::string unterminated = join(base);
  unterminated.pop_back();
  check("unterminated last line", unterminated);
  check("unterminated unpadded last line",
        unterminated.substr(0, unterminated.find_last_not_of(' ') + 1));
  check("CRLF line ends", [&] {
    std::string text;
    for (char c : join(base)) {
      if (c == '\n') text += '\r';
      text += c;
    }
    return text;
  }());
}

TEST(TraceIoParallel, StudyTracesReadAsInline) {
  for (const sim::Study& study : sim::all_studies()) {
    for (const auto& trace : study.traces) {
      SCOPED_TRACE(trace->label());
      std::ostringstream out;
      write_trace(out, *trace);
      const std::string text = out.str();
      if (text.size() >= 2 * kMinChunkBytes) {
        EXPECT_GE(chunk_starts(text, 4).size(), 1u);
      }
      const Outcome chunked = parse(text, Mode::Strict, ThreadPool::shared(4));
      EXPECT_EQ(chunked.trace, text);
      EXPECT_TRUE(parse(text, Mode::Strict, ThreadPool::shared(1)) == chunked);
    }
  }
}

TEST(TraceIoParallel, ChunkStartsFollowTheRule) {
  const std::string text = join(base_lines());
  EXPECT_TRUE(chunk_starts(text, 1).empty());
  EXPECT_EQ(chunk_starts(text, 2).size(), 1u);
  EXPECT_EQ(chunk_starts(text, 64).size(), text.size() / kMinChunkBytes - 1);
  EXPECT_TRUE(chunk_starts(text.substr(0, 2 * kMinChunkBytes - 1), 4).empty());
  for (std::size_t start : chunk_starts(text, 4)) {
    ASSERT_GT(start, 0u);
    EXPECT_EQ(text[start - 1], '\n');
  }
  // No chunk starts at the end of the text, nor inside a line too long to
  // split.
  const std::string one_line(3 * kMinChunkBytes, 'x');
  EXPECT_TRUE(chunk_starts(one_line, 4).empty());
  EXPECT_TRUE(chunk_starts(one_line + '\n', 4).empty());
}

TEST(TraceIoParallel, CountsItsChunks) {
  const std::string text = join(base_lines());
  obs::set_enabled(true);
  obs::reset();
  for (std::size_t threads : {1, 4}) {
    Diagnostics diags;
    read_trace(text, diags, ThreadPool::shared(threads));
  }
  const obs::RunReport report = obs::collect();
  obs::set_enabled(false);
  obs::reset();
  ASSERT_EQ(report.counters.count("trace_parse_chunks"), 1u);
  EXPECT_DOUBLE_EQ(report.counters.at("trace_parse_chunks"), 1.0 + 4.0);
}

}  // namespace
}  // namespace perftrack::trace
