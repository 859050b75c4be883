#pragma once
// Spans recorded by the benchmark around its calls into perftrack.
//
// Each timed op (a study, a cycle, a read) is a root span; every call it
// makes into a layer's public functions is a child span named after the
// layer ("trace.read", "tracking.retrack", "serve.regions", ...). Durations
// are always measured, because the workloads report them. Span records
// (name, start, end, parent, op id) are kept in memory only in a traced
// run, and written out when the benchmark ends.
//
// A Recorder belongs to one thread; threads merge theirs at the end.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady clock).
std::int64_t now_ns();

struct SpanRecord {
  const char* name;  ///< static storage
  std::uint64_t op;
  std::int64_t parent;  ///< index in Recorder::spans(), -1 for an op
  std::int64_t start_ns;
  std::int64_t end_ns;
};

class Recorder {
public:
  /// `op_base` offsets op ids so recorders of several threads never share
  /// one.
  explicit Recorder(bool keep_spans, std::uint64_t op_base = 0);

  bool keep_spans() const { return keep_spans_; }

  /// Start a new op: spans opened from now on carry its id.
  void begin_op() {
    ++op_;
    ++ops_;
  }
  std::uint64_t ops() const { return ops_; }

  /// Durations in ns of every completed span called `name`.
  std::vector<double>& durations(std::string_view name);
  const std::map<std::string, std::vector<double>, std::less<>>&
  all_durations() const {
    return durations_;
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Move `other`'s durations and spans into this recorder.
  void merge(Recorder&& other);

private:
  friend class Span;
  bool keep_spans_;
  std::uint64_t op_;  ///< id of the current op
  std::uint64_t ops_ = 0;
  std::int64_t open_ = -1;  ///< innermost open span record
  std::map<std::string, std::vector<double>, std::less<>> durations_;
  std::vector<SpanRecord> spans_;
};

/// RAII span: a child of the innermost span open on `recorder`.
class Span {
public:
  Span(Recorder& recorder, const char* name);
  ~Span() { finish(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Close now (idempotent); returns the duration in ns.
  std::int64_t finish();

private:
  Recorder& recorder_;
  const char* name_;
  std::int64_t start_;
  std::int64_t index_ = -1;
  std::int64_t parent_ = -1;
  std::int64_t duration_ = -1;
};

/// Per span name: executions, wall time and self time (wall time minus the
/// time its direct children cover).
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};

struct SpanSummary {
  std::map<std::string, SpanTotals> by_name;
  double root_ns = 0.0;  ///< summed wall time of the root spans
};

/// Totals by name, and the wall time of the roots: the ops and any call
/// made outside an op.
SpanSummary summarize(const std::vector<SpanRecord>& spans);

/// The span dump: every record plus the summary, as one JSON document.
/// `extra_json` (a complete JSON value, or empty) is embedded under
/// "program" — the folded obs / --profile report of the same run.
std::string spans_json(const std::string& workload,
                       const std::vector<SpanRecord>& spans,
                       const SpanSummary& summary,
                       const std::string& extra_json);

}  // namespace perfbench
