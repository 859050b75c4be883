// Differential fuzz target for the .ptt trace reader: arbitrary bytes
// through both entry points, read_trace(std::string_view) and
// read_trace(std::istream&), in strict and in lenient mode. Any
// perftrack::Error is a correct rejection, but both entry points must
// reject or accept alike: same trace (doubles compared bitwise), same
// error, same diagnostics. A disagreement aborts; so does anything else a
// parser must not do (sanitizer report, std:: exception escaping, crash).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>

#include "common/diagnostics.hpp"
#include "common/error.hpp"
#include "fuzz_driver.hpp"
#include "trace/trace_io.hpp"

namespace {

using perftrack::Diagnostics;
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

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
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
