#include "bench/workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench/quantile.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"

namespace perfbench {

namespace {

struct CatalogueEntry {
  const char* name;
  const char* unit;
};

// Every per-layer metric a traced run reports, in README.md order.
constexpr CatalogueEntry kLayerCatalogue[] = {
    {"sim.generate_ms", "ms"},
    {"sim.bursts", "count"},
    {"trace.write_ms", "ms"},
    {"trace.bytes", "bytes"},
    {"serve.start_ms", "ms"},
    {"serve.preload_ms", "ms"},
    {"trace.read_ms", "ms"},
    {"tracking.retrack_ms", "ms"},
    {"tracking.render_ms", "ms"},
    {"serve.append_ms.p50", "ms"},
    {"serve.append_ms.p90", "ms"},
    {"serve.regions_ms.p50", "ms"},
    {"serve.regions_ms.p90", "ms"},
    {"serve.trends_ms.p50", "ms"},
    {"serve.trends_ms.p90", "ms"},
    {"serve.regions_us.p50", "us"},
    {"serve.regions_us.p99", "us"},
    {"serve.trends_us.p50", "us"},
    {"serve.trends_us.p99", "us"},
    {"serve.coverage_us.p50", "us"},
    {"serve.coverage_us.p99", "us"},
    {"serve.stats_us.p50", "us"},
    {"serve.stats_us.p99", "us"},
    {"serve.report_us.p50", "us"},
    {"serve.report_us.p99", "us"},
    {"serve.request_bytes", "bytes"},
    {"serve.response_bytes", "bytes"},
    {"serve.phase.parse_us", "us"},
    {"serve.phase.queue_wait_us", "us"},
    {"serve.phase.lock_wait_us", "us"},
    {"serve.phase.write_us", "us"},
    {"serve.handler.append_experiment_ms", "ms"},
    {"serve.handler.regions_ms", "ms"},
    {"serve.cpu_ms_per_op", "ms"},
    {"serve.render_cache_hit_ratio", "ratio"},
    {"serve.render_cache_entries", "count"},
    {"serve.journal_bytes", "bytes"},
    {"serve.daemon_threads", "count"},
    {"cluster.build_frame_ms", "ms"},
    {"cluster.dbscan_ms", "ms"},
    {"cluster.normalize_ms", "ms"},
    {"cluster.points", "count"},
    {"align.star_align_ms", "ms"},
    {"align.nw_ms", "ms"},
    {"align.cells", "count"},
    {"tracking.displacement_ms", "ms"},
    {"tracking.frame_cloud_ms", "ms"},
    {"tracking.scale_fit_ms", "ms"},
    {"tracking.points_classified", "count"},
    {"tracking.pairs_tracked", "count"},
    {"tracking.pairs_memoized", "count"},
    {"tracking.pair_memo_hit_ratio", "ratio"},
    {"bench.attributed_ratio", "ratio"},
    {"bench.tracing_overhead_pct", "%"},
};

const char* catalogue_unit(const std::string& name) {
  for (const CatalogueEntry& entry : kLayerCatalogue)
    if (name == entry.name) return entry.unit;
  throw perftrack::Error("no layer metric " + name);
}

}  // namespace

void add_layer(Results& results, const std::string& name, double value) {
  results.add(name, catalogue_unit(name), value);
}

void SetupRuns::report(Results& results, const Corpus& corpus,
                       bool layers) const {
  auto median = [](const std::vector<double>& v) {
    return perftrack::percentile(v, 50);
  };
  if (!layers) {
    results.add("setup_s", "s", median(total_s));
    return;
  }
  add_layer(results, "sim.generate_ms", median(generate_ms));
  add_layer(results, "sim.bursts", static_cast<double>(corpus.bursts));
  add_layer(results, "trace.write_ms", median(write_ms));
  add_layer(results, "trace.bytes", static_cast<double>(corpus.bytes));
  if (!start_ms.empty()) add_layer(results, "serve.start_ms", median(start_ms));
  if (!preload_ms.empty())
    add_layer(results, "serve.preload_ms", median(preload_ms));
}

std::int64_t setup_start(const Options& options, const SetupRuns& runs) {
  return runs.total_s.empty() ? options.process_start_ns : now_ns();
}

double per_op_ms(const Recorder& recorder, const std::string& name,
                 double ops) {
  auto it = recorder.all_durations().find(name);
  if (it == recorder.all_durations().end() || ops <= 0) return 0.0;
  double sum = 0;
  for (double ns : it->second) sum += ns;
  return sum / 1e6 / ops;
}

double quantile_of(const Recorder& recorder, const std::string& name,
                   double q, double scale) {
  auto it = recorder.all_durations().find(name);
  if (it == recorder.all_durations().end())
    throw perftrack::Error("no samples of " + name);
  return quantile(it->second, q) * scale;
}

void report_program_layers(Results& results, const ProgramProfile& profile,
                           double ops) {
  auto per_op = [ops](double value) { return ops > 0 ? value / ops : 0.0; };
  add_layer(results, "cluster.build_frame_ms",
            per_op(profile.stage_ms("build_frame")));
  add_layer(results, "cluster.dbscan_ms", per_op(profile.stage_ms("dbscan")));
  add_layer(results, "cluster.normalize_ms",
            per_op(profile.stage_ms("normalize_fit") +
                   profile.stage_ms("normalize_apply")));
  add_layer(results, "cluster.points",
            per_op(profile.counter("dbscan_points")));
  add_layer(results, "align.star_align_ms",
            per_op(profile.stage_ms("star_align")));
  add_layer(results, "align.nw_ms",
            per_op(profile.stage_ms("needleman_wunsch")));
  add_layer(results, "align.cells",
            per_op(profile.counter("alignment_cells")));
  add_layer(results, "tracking.displacement_ms",
            per_op(profile.stage_ms("evaluator_displacement")));
  add_layer(results, "tracking.frame_cloud_ms",
            per_op(profile.stage_ms("frame_cloud")));
  add_layer(results, "tracking.scale_fit_ms",
            per_op(profile.stage_ms("scale_fit")));
  add_layer(results, "tracking.points_classified",
            per_op(profile.counter("displacement_points_classified")));
  const double tracked = profile.counter("session_pairs_tracked");
  const double memoized = profile.counter("session_pairs_memoized");
  add_layer(results, "tracking.pairs_tracked", per_op(tracked));
  add_layer(results, "tracking.pairs_memoized", per_op(memoized));
  add_layer(results, "tracking.pair_memo_hit_ratio",
            tracked + memoized > 0 ? memoized / (tracked + memoized) : 0.0);
}

void report_tracing(Results& results, std::vector<std::string>& info,
                    const Options& options, const Recorder& traced,
                    double untraced_op_ns, double traced_op_ns,
                    const ProgramProfile& profile) {
  const SpanSummary summary = summarize(traced.spans());
  add_layer(results, "bench.attributed_ratio",
            summary.root_ns > 0 ? profile.named_ns() / summary.root_ns : 0.0);
  add_layer(results, "bench.tracing_overhead_pct",
            (traced_op_ns / untraced_op_ns - 1.0) * 100.0);

  const double ops = static_cast<double>(traced.ops());
  char line[160];
  info.push_back("self time per op (traced half, " +
                 std::to_string(traced.ops()) + " ops):");
  for (const auto& [name, totals] : summary.by_name) {
    std::snprintf(line, sizeof line,
                  "  %-22s %8llu spans  total %10.4f ms/op  self %10.4f ms/op",
                  name.c_str(), static_cast<unsigned long long>(totals.count),
                  totals.total_ns / 1e6 / ops, totals.self_ns / 1e6 / ops);
    info.push_back(line);
  }
  if (!options.span_dump.empty()) {
    std::ofstream out(options.span_dump);
    out << spans_json(options.workload, traced.spans(), summary,
                      profile.json())
        << "\n";
    if (!out) throw perftrack::IoError("cannot write " + options.span_dump);
    info.push_back("span dump: " + options.span_dump);
  }
}

void complete_layer_catalogue(Results& results) {
  for (const CatalogueEntry& entry : kLayerCatalogue)
    if (!results.has(entry.name)) results.add(entry.name, entry.unit, 0.0);
}

OpMix op_mix(const std::vector<std::vector<double>>& op_ns_by_group) {
  OpMix mix;
  double log_sum = 0;
  for (const std::vector<double>& ops : op_ns_by_group) {
    const double ms = perftrack::percentile(ops, 50) / 1e6;
    log_sum += std::log(ms);
    mix.slowest_ms = std::max(mix.slowest_ms, ms);
  }
  mix.typical_ms =
      std::exp(log_sum / static_cast<double>(op_ns_by_group.size()));
  return mix;
}

void report_end_to_end(Results& results, double ops_per_s, double typical_ms,
                       double tail_ms, double peak_rss_mb,
                       std::uint64_t attempted, std::uint64_t failed) {
  results.add("peak_rss_mb", "MB", peak_rss_mb);
  results.add("ops_per_s", "1/s", ops_per_s);
  results.add("op_typical_ms", "ms", typical_ms);
  results.add("op_tail_ms", "ms", tail_ms);
  results.add("fail_ratio", "ratio",
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 1.0);
}

}  // namespace perfbench
