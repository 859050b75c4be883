#pragma once
// The three workloads (README.md says why each exists).
//
// Every workload sets itself up kSetupRuns times and keeps the last set-up,
// computes the serial reference outside every timed interval, then
// measures. An untraced run measures for Options::seconds. A traced
// run spends half of that untraced, for the per-layer numbers every run
// can take from outside, and half traced (in-memory spans, the program's
// obs spans or the daemon's --profile report); the difference between the
// two halves is the tracing overhead.

#include <cstdint>
#include <string>
#include <vector>

#include "bench/corpus.hpp"
#include "bench/profile.hpp"
#include "bench/results.hpp"
#include "bench/spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string daemon;     ///< perftrackd executable
  std::string span_dump;  ///< where a traced run writes its spans
  std::int64_t process_start_ns = 0;
};

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRuns = 3;

struct Outcome {
  Results metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< failed checks, one line each
  std::vector<std::string> info;      ///< digests, daemon argv, ...
  bool correct() const { return failed == 0 && problems.empty(); }
};

Outcome run_table2_batch(const Options& options);
Outcome run_live_append(const Options& options);
Outcome run_dashboard_read(const Options& options);

// ---------------------------------------------------------------------------
// Shared by the workloads.

/// Timings of the repeated set-ups; the reported value is each one's median.
struct SetupRuns {
  std::vector<double> total_s;
  std::vector<double> generate_ms;
  std::vector<double> write_ms;
  std::vector<double> start_ms;    ///< spawn until ping answered
  std::vector<double> preload_ms;  ///< appends plus the first read of each shape

  /// setup_s, or with `layers` the set-up layer metrics.
  void report(Results& results, const Corpus& corpus, bool layers) const;
};

/// Start of the next set-up: process start for the first one.
std::int64_t setup_start(const Options& options, const SetupRuns& runs);

/// Add a per-layer metric of the catalogue (its unit comes from there).
void add_layer(Results& results, const std::string& name, double value);

/// Add every per-layer metric of the catalogue this workload did not
/// measure, as 0: its layer is not on this workload's path.
void complete_layer_catalogue(Results& results);

/// Sum of `name`'s durations in ms divided by `ops` (0 when it never ran).
double per_op_ms(const Recorder& recorder, const std::string& name,
                 double ops);

/// q-quantile of `name`'s durations (ns) times `scale`.
double quantile_of(const Recorder& recorder, const std::string& name,
                   double q, double scale);

/// The cluster/align/tracking layer metrics, per op, from the program's
/// own spans (obs in process, --profile for the daemon).
void report_program_layers(Results& results, const ProgramProfile& profile,
                           double ops);

/// bench.attributed_ratio and bench.tracing_overhead_pct. The ratio is the
/// share of the traced ops' wall time (all root spans of `traced`) that
/// the program's own named stages in `profile` account for
/// (ProgramProfile::named_ns); the overhead compares the mean op time of
/// the two halves. Self times go to `info` and the span dump to
/// Options::span_dump.
void report_tracing(Results& results, std::vector<std::string>& info,
                    const Options& options, const Recorder& traced,
                    double untraced_op_ns, double traced_op_ns,
                    const ProgramProfile& profile);

/// Typical and slowest op time of a workload whose ops fall into groups of
/// very different cost: the ten studies (up to tenfold apart), or the read
/// methods (a report answer is 207 KB). A plain percentile of that mixture
/// falls between two groups and flips between them from run to run; the
/// median op time of each group does not.
struct OpMix {
  double typical_ms = 0;  ///< geometric mean of the groups' median op times
  double slowest_ms = 0;  ///< the largest of those medians
};
OpMix op_mix(const std::vector<std::vector<double>>& op_ns_by_group);

/// The end-to-end metrics of one untraced phase under the names
/// BENCHMARK.json fixes for every workload, and fail_ratio.
void report_end_to_end(Results& results, double ops_per_s, double typical_ms,
                       double tail_ms, double peak_rss_mb,
                       std::uint64_t attempted, std::uint64_t failed);

}  // namespace perfbench
