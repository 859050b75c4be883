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
//
// The reader holds the whole text in one buffer, cuts it at line ends into
// chunks of at least kMinChunkBytes, one per pool worker at most, and scans
// the chunks on the pool. A chunk reads the burst records that parse and
// keeps every other line; one serial replay then runs those lines through
// the general grammar in line order, so the trace, the diagnostics and the
// exceptions do not depend on the pool (docs/PERFORMANCE.md, "Reading
// traces").

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/diagnostics.hpp"
#include "common/thread_pool.hpp"
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
/// Throws IoError on stream failure in either mode. The chunks of a large
/// text are scanned on `pool`; the default is the pool a session with
/// `threads = 0` uses, and a one-thread pool scans inline.
Trace read_trace(std::istream& in, Diagnostics& diags,
                 ThreadPool& pool = ThreadPool::shared(
                     ThreadPool::default_thread_count()));

/// Strict-mode convenience overload.
Trace read_trace(std::istream& in);

/// Parse trace text already in memory, in place: the same grammar and
/// diagnostics as the stream overload, without copying the text.
Trace read_trace(std::string_view text, Diagnostics& diags,
                 ThreadPool& pool = ThreadPool::shared(
                     ThreadPool::default_thread_count()));

/// Parse from a file; stamps the path onto `diags` for its diagnostics.
Trace load_trace(const std::string& path, Diagnostics& diags,
                 ThreadPool& pool = ThreadPool::shared(
                     ThreadPool::default_thread_count()));

/// Strict-mode convenience overload.
Trace load_trace(const std::string& path);

/// The smallest chunk the reader cuts off for a pool worker.
inline constexpr std::size_t kMinChunkBytes = 256 * 1024;

/// Where the reader cuts `text` for a pool of `threads` workers: the offset
/// of every chunk after the first, each right after a '\n'. The reader aims
/// at max(1, min(threads, text.size() / kMinChunkBytes)) chunks of equal
/// size, and drops a chunk that would start at the end of the text.
std::vector<std::size_t> chunk_starts(std::string_view text,
                                      std::size_t threads);

}  // namespace perftrack::trace
