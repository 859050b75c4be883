#pragma once
// Text serialisation of traces (.ptt — "perftrack trace").
//
// A deliberately simple line format in the spirit of Paraver's textual
// traces, so that fixtures can be versioned, diffed, and produced by other
// tools. Layout:
//
//   #PTT 1
//   app <application name>
//   label <experiment label>
//   tasks <count>
//   attr <key> <value>
//   callstack <id> <line> <file> <function...>
//   burst <task> <begin> <duration> <callstack-id> <INSTR> <CYC> <L1DM> <L2M> <TLBM>
//
// `function` is the final field of a callstack line and may contain spaces;
// `file` may not. Burst lines must appear in per-task time order (the same
// invariant Trace::add_burst enforces). Blank lines and lines starting with
// '#' (after the magic) are ignored.
//
// The writer prints integers in decimal and doubles as C's "%.17g" in the C
// locale, which round-trips every finite double; the reader accepts any
// number std::from_chars parses (docs/FORMATS.md).

#include <iosfwd>
#include <string>
#include <string_view>

#include "common/diagnostics.hpp"
#include "trace/trace.hpp"

namespace perftrack::trace {

/// Serialise `trace` to the stream. Throws IoError on stream failure.
void write_trace(std::ostream& out, const Trace& trace);

/// Append the `burst` record write_trace emits for `burst`, newline
/// included, to `out`.
void append_burst_record(std::string& out, const Burst& burst);

/// Serialise to a file; throws IoError on failure.
void save_trace(const std::string& path, const Trace& trace);

/// Parse a trace from the stream, reporting malformed records to `diags`.
/// With a strict collector the first error throws ParseError (the
/// historical behaviour); with a lenient one bad records are skipped or
/// repaired and parsing aborts only once the error budget is exhausted.
/// Throws IoError on stream failure in either mode.
Trace read_trace(std::istream& in, Diagnostics& diags);

/// Strict-mode convenience overload.
Trace read_trace(std::istream& in);

/// Parse trace text already in memory, in place: the same grammar and
/// diagnostics as the stream overload, without copying the text.
Trace read_trace(std::string_view text, Diagnostics& diags);

/// Parse from a file; stamps the path onto `diags` for its diagnostics.
Trace load_trace(const std::string& path, Diagnostics& diags);

/// Strict-mode convenience overload.
Trace load_trace(const std::string& path);

}  // namespace perftrack::trace
