// Differential fuzz target for the .ptt trace reader: arbitrary bytes
// through both entry points, read_trace(std::string_view) and
// read_trace(std::istream&), in strict and in lenient mode. Any
// perftrack::Error is a correct rejection, but both entry points must
// reject or accept alike: same trace (doubles compared bitwise), same
// error, same diagnostics. A disagreement aborts; so does anything else a
// parser must not do (sanitizer report, std:: exception escaping, crash).
//
// The bytes also go between the two halves of a valid trace of about
// 600 KiB, where a pool of four workers cuts the text into two chunks next
// to them. That text must read the same on a pool of one and on a pool of
// four.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>

#include "common/diagnostics.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "fuzz_driver.hpp"
#include "trace/trace_io.hpp"

namespace {

using perftrack::Diagnostics;
using perftrack::ThreadPool;
using perftrack::trace::Trace;

void append_bits(std::string& out, double value) {
  char bytes[sizeof value];
  std::memcpy(bytes, &value, sizeof value);
  out.append(bytes, sizeof bytes);
}

/// Everything a parse produced, as one comparable string.
std::string summary(const Trace& trace) {
  std::string out = trace.application() + '\n' + trace.label() + '\n' +
                    std::to_string(trace.num_tasks()) + '\n';
  for (const auto& [key, value] : trace.attributes())
    out += key + '=' + value + '\n';
  for (perftrack::trace::CallstackId id = 0; id < trace.callstacks().size();
       ++id) {
    const auto& location = trace.callstacks().resolve(id);
    out += location.function + '@' + location.file + ':' +
           std::to_string(location.line) + '\n';
  }
  for (const auto& burst : trace.bursts()) {
    out += std::to_string(burst.task) + ' ' + std::to_string(burst.callstack);
    append_bits(out, burst.begin_time);
    append_bits(out, burst.duration);
    for (std::size_t c = 0; c < perftrack::trace::kCounterCount; ++c)
      append_bits(out, burst.counters.get(
                           static_cast<perftrack::trace::Counter>(c)));
    out += '\n';
  }
  return out;
}

template <typename Parse>
std::string outcome(bool lenient, Parse&& parse) {
  Diagnostics diags =
      lenient ? Diagnostics::lenient() : Diagnostics::strict();
  std::string out;
  try {
    out = "trace\n" + summary(parse(diags));
  } catch (const perftrack::ParseError& error) {
    out = std::string("ParseError: ") + error.what();
  } catch (const perftrack::Error& error) {
    out = std::string("Error: ") + error.what();
  }
  return out + "\n--\n" + diags.to_string();
}

/// A valid trace's text in two halves of about 300 KiB each: the header,
/// bursts, a pad and more bursts; then bursts, a pad and the last bursts.
/// The pad is one comment line, so the text is long enough to split and
/// still cheap to parse.
struct Halves {
  std::string head, tail;
};

const Halves& padded_halves() {
  static const Halves halves = [] {
    Trace trace("fuzz-app", 4);
    trace.callstacks().intern({"compute kernel", "solver.c", 10});
    trace.callstacks().intern({"halo", "comm.c", 20});
    for (std::size_t i = 0; i < 256; ++i) {
      perftrack::trace::Burst burst;
      const double x = static_cast<double>(i);
      burst.task = static_cast<std::uint32_t>(i % 4);
      burst.begin_time = 1e-3 * x;
      burst.duration = 5e-4 + 1e-7 * static_cast<double>(i % 89);
      burst.callstack = static_cast<perftrack::trace::CallstackId>(1 + i % 2);
      burst.counters.set(perftrack::trace::Counter::Instructions, 1e6 + x);
      burst.counters.set(perftrack::trace::Counter::Cycles, 2e6 + 0.5 * x);
      trace.add_burst(burst);
    }
    std::ostringstream out;
    perftrack::trace::write_trace(out, trace);
    const std::string text = out.str();
    // Cut the text at the line ends nearest its quarters.
    std::size_t cut[3];
    for (std::size_t q = 0; q < 3; ++q)
      cut[q] = text.find('\n', (q + 1) * text.size() / 4) + 1;
    const std::string pad = "# " + std::string(300 * 1024, 'x') + '\n';
    return Halves{text.substr(0, cut[0]) + pad +
                      text.substr(cut[0], cut[1] - cut[0]),
                  text.substr(cut[1], cut[2] - cut[1]) + pad +
                      text.substr(cut[2])};
  }();
  return halves;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  const Halves& halves = padded_halves();
  const std::string embedded = halves.head + text + halves.tail;
  for (bool lenient : {false, true}) {
    const std::string inline_read = outcome(lenient, [&](Diagnostics& diags) {
      return perftrack::trace::read_trace(std::string_view(embedded), diags,
                                          ThreadPool::shared(1));
    });
    const std::string chunked = outcome(lenient, [&](Diagnostics& diags) {
      return perftrack::trace::read_trace(std::string_view(embedded), diags,
                                          ThreadPool::shared(4));
    });
    if (inline_read != chunked) {
      std::fprintf(stderr,
                   "fuzz_ptt: pools of 1 and 4 read the embedded bytes "
                   "differently (%s mode)\n1 thread:\n%s\n4 threads:\n%s\n",
                   lenient ? "lenient" : "strict", inline_read.c_str(),
                   chunked.c_str());
      std::abort();
    }
  }
  for (bool lenient : {false, true}) {
    const std::string from_text = outcome(lenient, [&](Diagnostics& diags) {
      return perftrack::trace::read_trace(std::string_view(text), diags);
    });
    const std::string from_stream = outcome(lenient, [&](Diagnostics& diags) {
      std::istringstream in(text);
      return perftrack::trace::read_trace(in, diags);
    });
    if (from_text != from_stream) {
      std::fprintf(stderr,
                   "fuzz_ptt: read_trace entry points disagree (%s mode)\n"
                   "string_view:\n%s\nistream:\n%s\n",
                   lenient ? "lenient" : "strict", from_text.c_str(),
                   from_stream.c_str());
      std::abort();
    }
  }
  return 0;
}

std::vector<std::string> fuzz_seed_corpus() {
  return {
      "#PTT 1\n"
      "app fuzz-app\n"
      "label fuzz\n"
      "tasks 2\n"
      "attr platform Reference\n"
      "callstack 1 10 solver.c compute kernel\n"
      "burst 0 0.0 0.1 1 1000 500 10 5 1\n"
      "burst 1 0.0 0.1 1 1000 500 10 5 1\n"
      "burst 0 0.2 0.1 1 1200 600 12 6 1\n",
      "#PTT 1\r\napp crlf\r\ntasks 1\r\nburst 0 0 0.1 0 1 1 0 0 0\r\n",
      "#PTT 1\napp a\ntasks 1\nburst 0 zero 0.1 0 1 1 0 0 0\n",
      "#PTT 1\n# comment\n\ntasks 1\nburst 0 0 0.1 9 1 1 0 0 0\n",
      "#PTT 1\napp unterminated\ntasks 1\nburst 0 0 0.1 0 1 1 0 0 0",
      "not a trace at all\n",
      "",
  };
}
