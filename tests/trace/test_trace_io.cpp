#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <utility>
#include <vector>

#include "common/diagnostics.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/studies.hpp"

namespace perftrack::trace {
namespace {

Trace make_rich_trace(std::uint64_t seed, std::uint32_t tasks,
                      int bursts_per_task) {
  perftrack::Rng rng(seed);
  Trace t("TestApp", tasks);
  t.set_label("TestApp-" + std::to_string(tasks));
  t.set_attribute("platform", "Reference");
  t.set_attribute("compiler", "gfortran");
  CallstackId cs1 = t.callstacks().intern({"solve it", "solver.f90", 42});
  CallstackId cs2 = t.callstacks().intern({"halo", "comm.f90", 7});
  for (std::uint32_t task = 0; task < tasks; ++task) {
    double clock = 0.0;
    for (int i = 0; i < bursts_per_task; ++i) {
      Burst b;
      b.task = task;
      b.begin_time = clock;
      b.duration = rng.uniform(0.001, 0.1);
      b.callstack = i % 2 == 0 ? cs1 : cs2;
      b.counters.set(Counter::Instructions, rng.uniform(1e5, 1e7));
      b.counters.set(Counter::Cycles, rng.uniform(1e5, 1e7));
      b.counters.set(Counter::L1DMisses, rng.uniform(0.0, 1e4));
      b.counters.set(Counter::L2Misses, rng.uniform(0.0, 1e3));
      b.counters.set(Counter::TlbMisses, rng.uniform(0.0, 1e2));
      t.add_burst(b);
      clock += b.duration + rng.uniform(0.0, 0.01);
    }
  }
  return t;
}

void expect_traces_equal(const Trace& a, const Trace& b) {
  EXPECT_EQ(a.application(), b.application());
  EXPECT_EQ(a.label(), b.label());
  EXPECT_EQ(a.num_tasks(), b.num_tasks());
  EXPECT_EQ(a.attributes(), b.attributes());
  ASSERT_EQ(a.burst_count(), b.burst_count());
  for (std::size_t i = 0; i < a.burst_count(); ++i) {
    const Burst& x = a.bursts()[i];
    const Burst& y = b.bursts()[i];
    EXPECT_EQ(x.task, y.task);
    EXPECT_DOUBLE_EQ(x.begin_time, y.begin_time);
    EXPECT_DOUBLE_EQ(x.duration, y.duration);
    EXPECT_EQ(a.callstacks().resolve(x.callstack),
              b.callstacks().resolve(y.callstack));
    EXPECT_EQ(x.counters, y.counters);
  }
}

class TraceIoRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceIoRoundTrip, WriteReadPreservesEverything) {
  Trace original = make_rich_trace(GetParam(), 3, 10);
  std::stringstream stream;
  write_trace(stream, original);
  Trace loaded = read_trace(stream);
  expect_traces_equal(original, loaded);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceIoRoundTrip,
                         ::testing::Values(1, 17, 23, 99));

TEST(TraceIoTest, FileRoundTrip) {
  Trace original = make_rich_trace(5, 2, 4);
  std::string path = ::testing::TempDir() + "/pt_trace_test.ptt";
  save_trace(path, original);
  Trace loaded = load_trace(path);
  expect_traces_equal(original, loaded);
  std::remove(path.c_str());
}

TEST(TraceIoTest, FunctionNamesWithSpacesSurvive) {
  Trace t("app", 1);
  CallstackId cs =
      t.callstacks().intern({"operator new [](unsigned long)", "mm.cpp", 1});
  Burst b;
  b.callstack = cs;
  t.add_burst(b);
  std::stringstream stream;
  write_trace(stream, t);
  Trace loaded = read_trace(stream);
  EXPECT_EQ(loaded.callstacks().resolve(loaded.bursts()[0].callstack).function,
            "operator new [](unsigned long)");
}

TEST(TraceIoTest, MissingMagicThrows) {
  std::stringstream stream("app foo\ntasks 1\n");
  EXPECT_THROW(read_trace(stream), ParseError);
}

TEST(TraceIoTest, MissingAppThrows) {
  std::stringstream stream("#PTT 1\ntasks 1\n");
  EXPECT_THROW(read_trace(stream), ParseError);
}

TEST(TraceIoTest, MissingTasksThrows) {
  std::stringstream stream("#PTT 1\napp foo\n");
  EXPECT_THROW(read_trace(stream), ParseError);
}

TEST(TraceIoTest, UnknownRecordThrows) {
  std::stringstream stream("#PTT 1\napp foo\ntasks 1\nwhatisthis 1 2\n");
  EXPECT_THROW(read_trace(stream), ParseError);
}

TEST(TraceIoTest, BadNumberThrows) {
  std::stringstream stream(
      "#PTT 1\napp foo\ntasks 1\nburst 0 zero 0.1 0 1 1 0 0 0\n");
  EXPECT_THROW(read_trace(stream), ParseError);
}

TEST(TraceIoTest, ShortBurstLineThrows) {
  std::stringstream stream("#PTT 1\napp foo\ntasks 1\nburst 0 0.0 0.1 0 1\n");
  EXPECT_THROW(read_trace(stream), ParseError);
}

TEST(TraceIoTest, UndeclaredCallstackThrows) {
  std::stringstream stream(
      "#PTT 1\napp foo\ntasks 1\nburst 0 0.0 0.1 9 1 1 0 0 0\n");
  EXPECT_THROW(read_trace(stream), ParseError);
}

TEST(TraceIoTest, CommentsAndBlanksIgnored) {
  std::stringstream stream(
      "#PTT 1\n\n# a comment\napp foo\ntasks 1\n\nburst 0 0.0 0.1 0 1 2 0 0 "
      "0\n");
  Trace t = read_trace(stream);
  EXPECT_EQ(t.burst_count(), 1u);
  EXPECT_DOUBLE_EQ(t.bursts()[0].counters.get(Counter::Cycles), 2.0);
}

TEST(TraceIoTest, LoadMissingFileThrows) {
  EXPECT_THROW(load_trace("/nonexistent-xyz/trace.ptt"), IoError);
}

// ---------------------------------------------------------------------------
// Driver equivalence: read_trace(std::string_view), read_trace(std::istream&)
// and load_trace share one parser core and must agree on every input.

enum class Driver { Text, Stream, File };

/// Everything one parse produces: the trace (when it loads), the thrown
/// error (type and message) and the rendered diagnostics.
struct Outcome {
  std::optional<Trace> trace;
  std::string error;
  std::string diagnostics;
};

Outcome parse_with(Driver driver, const std::string& bytes, bool lenient,
                   const std::string& path) {
  Diagnostics diags = lenient ? Diagnostics::lenient() : Diagnostics::strict();
  diags.set_file(path);  // load_trace stamps this path; match it
  Outcome out;
  try {
    switch (driver) {
      case Driver::Text:
        out.trace.emplace(read_trace(std::string_view(bytes), diags));
        break;
      case Driver::Stream: {
        std::istringstream in(bytes);
        out.trace.emplace(read_trace(in, diags));
        break;
      }
      case Driver::File:
        out.trace.emplace(load_trace(path, diags));
        break;
    }
  } catch (const ParseError& error) {
    out.error = std::string("ParseError: ") + error.what();
  } catch (const Error& error) {
    out.error = std::string("Error: ") + error.what();
  }
  out.diagnostics = diags.to_string();
  return out;
}

std::uint64_t bits_of(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

void expect_identical(const Trace& a, const Trace& b) {
  EXPECT_EQ(a.application(), b.application());
  EXPECT_EQ(a.label(), b.label());
  EXPECT_EQ(a.num_tasks(), b.num_tasks());
  EXPECT_EQ(a.attributes(), b.attributes());
  ASSERT_EQ(a.callstacks().size(), b.callstacks().size());
  for (CallstackId id = 0; id < a.callstacks().size(); ++id)
    EXPECT_EQ(a.callstacks().resolve(id), b.callstacks().resolve(id));
  ASSERT_EQ(a.burst_count(), b.burst_count());
  for (std::size_t i = 0; i < a.burst_count(); ++i) {
    const Burst& x = a.bursts()[i];
    const Burst& y = b.bursts()[i];
    EXPECT_EQ(x.task, y.task);
    EXPECT_EQ(bits_of(x.begin_time), bits_of(y.begin_time));
    EXPECT_EQ(bits_of(x.duration), bits_of(y.duration));
    EXPECT_EQ(x.callstack, y.callstack);
    for (std::size_t c = 0; c < kCounterCount; ++c)
      EXPECT_EQ(bits_of(x.counters.get(static_cast<Counter>(c))),
                bits_of(y.counters.get(static_cast<Counter>(c))));
  }
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::string text_of(const Trace& trace) {
  std::ostringstream out;
  write_trace(out, trace);
  return out.str();
}

std::vector<std::pair<std::string, std::string>> equivalence_inputs() {
  std::vector<std::pair<std::string, std::string>> inputs;
  for (const char* name : {"truncated", "bad_magic", "garbage_line",
                           "dangling_callstack", "duplicate_ids"})
    inputs.emplace_back(name, file_bytes(std::string(PT_TEST_DATA_DIR) +
                                         "/trace/corpus/" + name + ".ptt"));
  const std::string rich = text_of(make_rich_trace(3, 2, 5));
  std::string crlf;
  for (char c : rich) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  inputs.emplace_back("crlf", crlf);
  inputs.emplace_back("unterminated", rich.substr(0, rich.size() - 1));
  inputs.emplace_back("comments_and_blanks",
                      "#PTT 1\n# comment\n\n   \napp A\n# another\nlabel L\n"
                      "tasks 1\n\ncallstack 1 3 a.c main\n"
                      "burst 0 0 0.5 1 1 1 0 0 0\n\n");
  inputs.emplace_back("function_names_with_spaces",
                      "#PTT 1\napp A\ntasks 1\n"
                      "callstack 1 10 x.c compute  the   kernel \n"
                      "callstack 2 11 y.c operator new [](unsigned long)\n"
                      "burst 0 0 0.5 1 1 1 0 0 0\nburst 0 1 0.5 2 1 1 0 0 0\n");
  inputs.emplace_back("empty", "");
  inputs.emplace_back("newline_only", "\n");
  int experiment = 0;
  for (const auto& trace : sim::study_gadget().traces)
    inputs.emplace_back("gadget_" + std::to_string(experiment++),
                        text_of(*trace));
  return inputs;
}

TEST(TraceIoTest, TextStreamAndFileDriversAgree) {
  for (const auto& [name, bytes] : equivalence_inputs()) {
    const std::string path =
        ::testing::TempDir() + "/pt_equiv_" + name + ".ptt";
    {
      std::ofstream out(path, std::ios::binary);
      out << bytes;
    }
    for (bool lenient : {false, true}) {
      SCOPED_TRACE(name + (lenient ? " (lenient)" : " (strict)"));
      const Outcome text = parse_with(Driver::Text, bytes, lenient, path);
      for (Driver driver : {Driver::Stream, Driver::File}) {
        const Outcome other = parse_with(driver, bytes, lenient, path);
        EXPECT_EQ(text.error, other.error);
        EXPECT_EQ(text.diagnostics, other.diagnostics);
        ASSERT_EQ(text.trace.has_value(), other.trace.has_value());
        if (text.trace) expect_identical(*text.trace, *other.trace);
      }
    }
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Writer oracle: the .ptt byte contract (docs/FORMATS.md) is what an
// ostream with precision(17) prints, C's "%.17g". The writer formats with
// std::to_chars and must match it byte for byte.

/// One burst record as a precision-17 ostream prints it.
std::string stream_burst_record(const Burst& b) {
  std::ostringstream out;
  out.precision(17);
  out << "burst " << b.task << ' ' << b.begin_time << ' ' << b.duration
      << ' ' << b.callstack;
  for (std::size_t i = 0; i < kCounterCount; ++i)
    out << ' ' << b.counters.get(static_cast<Counter>(i));
  out << '\n';
  return out.str();
}

std::string burst_record(const Burst& b) {
  std::string out;
  append_burst_record(out, b);
  return out;
}

/// A burst whose every double field is `value`.
Burst burst_of(std::uint32_t task, std::uint32_t callstack, double value) {
  Burst b;
  b.task = task;
  b.callstack = callstack;
  b.begin_time = value;
  b.duration = value;
  for (std::size_t i = 0; i < kCounterCount; ++i)
    b.counters.set(static_cast<Counter>(i), value);
  return b;
}

TEST(TraceIoTest, BurstRecordMatchesStreamOnEdgeValues) {
  using limits = std::numeric_limits<double>;
  std::vector<double> values = {
      0.0, -0.0, limits::denorm_min(), -limits::denorm_min(), DBL_MIN,
      -DBL_MIN, DBL_MAX, -DBL_MAX, limits::infinity(), -limits::infinity(),
      limits::quiet_NaN(), -limits::quiet_NaN(),
      // Integral doubles, up to and past 2^53.
      1.0, -1.0, 2.0, 10.0, 123456789.0, 4294967295.0, 9007199254740992.0,
      9007199254740994.0, 1e15, 1e22, 0.1, 1.0 / 3.0, 0.5};
  // "%.17g" prints decimal exponents -4 to 16 in fixed notation and the
  // rest in exponent notation; cover both sides of each switch.
  for (double point : {1e-5, 1e-4, 1e16, 1e17}) {
    for (double v : {std::nextafter(point, 0.0), point,
                     std::nextafter(point, limits::infinity())}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  const std::uint32_t ids[] = {0, 1, 9, 10, 4294967294u, 4294967295u};
  for (double value : values) {
    for (std::uint32_t id : ids) {
      const Burst b = burst_of(id, ~id, value);
      EXPECT_EQ(burst_record(b), stream_burst_record(b));
    }
  }
}

TEST(TraceIoTest, BurstRecordMatchesStreamOnRandomBitPatterns) {
  // 150,000 bursts of seven doubles each: 1.05M random bit patterns, with
  // task and callstack drawn from the whole uint32 range.
  std::mt19937_64 bits(4242);
  auto random_double = [&] {
    const std::uint64_t pattern = bits();
    double value = 0.0;
    std::memcpy(&value, &pattern, sizeof value);
    return value;
  };
  std::string record;
  for (int i = 0; i < 150000; ++i) {
    Burst b;
    b.task = static_cast<std::uint32_t>(bits());
    b.callstack = static_cast<std::uint32_t>(bits());
    b.begin_time = random_double();
    b.duration = random_double();
    for (std::size_t c = 0; c < kCounterCount; ++c)
      b.counters.set(static_cast<Counter>(c), random_double());
    record.clear();
    append_burst_record(record, b);
    ASSERT_EQ(record, stream_burst_record(b)) << "burst " << i;
  }
}

// ---------------------------------------------------------------------------
// Values a 32-bit field cannot hold, and a task count of 0, are parse
// errors: they were once truncated, or reached the Trace constructor's
// precondition.

/// Strict and lenient outcomes of `text`: the strict error and the lenient
/// diagnostics, plus the lenient trace when it loads.
struct LimitOutcome {
  std::string strict_error;
  std::string lenient_diagnostics;
  std::optional<Trace> lenient_trace;
};

LimitOutcome parse_both(const std::string& text) {
  LimitOutcome out;
  Diagnostics strict;
  try {
    read_trace(std::string_view(text), strict);
  } catch (const ParseError& error) {
    out.strict_error = error.what();
  }
  Diagnostics lenient = Diagnostics::lenient();
  try {
    out.lenient_trace.emplace(read_trace(std::string_view(text), lenient));
  } catch (const ParseError&) {
  }
  out.lenient_diagnostics = lenient.to_string();
  return out;
}

TEST(TraceIoLimits, ZeroTaskCountIsABadNumber) {
  const LimitOutcome out = parse_both(
      "#PTT 1\napp a\ntasks 0\nburst 2 0 0.5 0 1 1 0 0 0\n");
  EXPECT_EQ(out.strict_error, "line 3: bad task count: 0");
  // Lenient mode infers the count from the bursts, as for a missing record.
  ASSERT_TRUE(out.lenient_trace.has_value());
  EXPECT_EQ(out.lenient_trace->num_tasks(), 3u);
  EXPECT_EQ(out.lenient_diagnostics,
            "error: 3: [bad-number] bad task count: 0\n"
            "warning: [missing-tasks] trace missing 'tasks' record "
            "(inferred 3 from bursts)\n");
}

TEST(TraceIoLimits, TaskCountAbove32BitsIsABadNumber) {
  const LimitOutcome out = parse_both(
      "#PTT 1\napp a\ntasks 4294967297\nburst 0 0 0.5 0 1 1 0 0 0\n");
  EXPECT_EQ(out.strict_error, "line 3: bad task count: 4294967297");
  ASSERT_TRUE(out.lenient_trace.has_value());
  EXPECT_EQ(out.lenient_trace->num_tasks(), 1u);
  EXPECT_EQ(out.lenient_diagnostics,
            "error: 3: [bad-number] bad task count: 4294967297\n"
            "warning: [missing-tasks] trace missing 'tasks' record "
            "(inferred 1 from bursts)\n");
}

TEST(TraceIoLimits, TaskCountAboveTheCapIsABadNumber) {
  // 2^32 - 1 fits 32 bits, but a Trace sizes one index per task.
  for (const char* count : {"4294967295", "1048577"}) {
    SCOPED_TRACE(count);
    const LimitOutcome out =
        parse_both(std::string("#PTT 1\napp a\ntasks ") + count +
                   "\nburst 0 0 0.5 0 1 1 0 0 0\n");
    EXPECT_EQ(out.strict_error, std::string("line 3: bad task count: ") + count);
    ASSERT_TRUE(out.lenient_trace.has_value());
    EXPECT_EQ(out.lenient_trace->num_tasks(), 1u);
    EXPECT_EQ(out.lenient_diagnostics,
              std::string("error: 3: [bad-number] bad task count: ") + count +
                  "\nwarning: [missing-tasks] trace missing 'tasks' record "
                  "(inferred 1 from bursts)\n");
  }
  // The cap itself is a valid count.
  const LimitOutcome at_cap =
      parse_both("#PTT 1\napp a\ntasks 1048576\nburst 0 0 0.5 0 1 1 0 0 0\n");
  EXPECT_EQ(at_cap.strict_error, "");
  ASSERT_TRUE(at_cap.lenient_trace.has_value());
  EXPECT_EQ(at_cap.lenient_trace->num_tasks(), kMaxTasks);
}

TEST(TraceIoLimits, InferredTaskCountAboveTheCapMakesTheTraceUnusable) {
  // Without a 'tasks' record, lenient mode infers max task id + 1; a task
  // id at or above the cap leaves no usable count, as no bursts do.
  for (const char* task : {"4294967295", "1048576"}) {
    SCOPED_TRACE(task);
    const LimitOutcome out = parse_both(
        std::string("#PTT 1\napp a\nburst 0 0 0.5 0 1 1 0 0 0\nburst ") +
        task + " 0 0.5 0 1 1 0 0 0\n");
    EXPECT_EQ(out.strict_error, "trace missing 'tasks' record");
    EXPECT_FALSE(out.lenient_trace.has_value());
    EXPECT_EQ(out.lenient_diagnostics,
              "warning: [missing-tasks] trace missing 'tasks' record\n");
  }
  // The largest id under the cap infers the cap.
  const LimitOutcome at_cap = parse_both(
      "#PTT 1\napp a\nburst 1048575 0 0.5 0 1 1 0 0 0\n");
  ASSERT_TRUE(at_cap.lenient_trace.has_value());
  EXPECT_EQ(at_cap.lenient_trace->num_tasks(), kMaxTasks);
}

TEST(TraceIoLimits, TaskIdAbove32BitsIsABadBurst) {
  for (const char* task : {"4294967296", "4294967297"}) {
    SCOPED_TRACE(task);
    const LimitOutcome out = parse_both(
        std::string("#PTT 1\napp a\ntasks 2\nburst 1 0 0.5 0 1 1 0 0 0\n"
                    "burst ") +
        task + " 1 0.5 0 1 1 0 0 0\n");
    EXPECT_EQ(out.strict_error, "line 5: bad number in burst record");
    ASSERT_TRUE(out.lenient_trace.has_value());
    EXPECT_EQ(out.lenient_trace->burst_count(), 1u);
    EXPECT_EQ(out.lenient_diagnostics,
              "error: 5: [bad-burst] bad number in burst record\n");
  }
}

TEST(TraceIoLimits, CallstackLineAbove32BitsIsABadCallstack) {
  const LimitOutcome out = parse_both(
      "#PTT 1\napp a\ntasks 1\ncallstack 1 4294967296 x.c f\n"
      "burst 0 0 0.5 0 1 1 0 0 0\n");
  EXPECT_EQ(out.strict_error, "line 4: bad number in callstack record");
  ASSERT_TRUE(out.lenient_trace.has_value());
  EXPECT_EQ(out.lenient_trace->callstacks().size(), 1u);
  EXPECT_EQ(out.lenient_diagnostics,
            "error: 4: [bad-callstack] bad number in callstack record\n");
}

TEST(TraceIoLimits, UnreadableInputIsAnIoError) {
  // A directory opens but cannot be read: an I/O failure, not a text
  // without its magic line.
  Diagnostics diags = Diagnostics::lenient();
  EXPECT_THROW(load_trace(::testing::TempDir(), diags), IoError);
  EXPECT_TRUE(diags.empty());
}

TEST(TraceIoLimits, LargestCallstackLineStillLoads) {
  std::istringstream in(
      "#PTT 1\napp a\ntasks 1\ncallstack 1 4294967295 x.c f\n"
      "burst 0 0 0.5 1 1 1 0 0 0\n");
  const Trace t = read_trace(in);
  EXPECT_EQ(t.callstacks().resolve(1).line, 4294967295u);
}

}  // namespace
}  // namespace perftrack::trace
