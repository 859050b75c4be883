#include "tracking/report.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cluster/scatter.hpp"
#include "common/strings.hpp"
#include "obs/telemetry.hpp"
#include "trace/metrics.hpp"

namespace perftrack::tracking {

std::string trend_chart(const std::vector<TrendSeries>& series,
                        const std::vector<std::string>& frame_labels,
                        const TrendChartOptions& options) {
  if (series.empty()) return "(no series)\n";
  const std::size_t frames = series.front().values.size();

  double lo = options.y_min, hi = options.y_max;
  if (std::isnan(lo) || std::isnan(hi)) {
    double dlo = std::numeric_limits<double>::infinity();
    double dhi = -std::numeric_limits<double>::infinity();
    for (const auto& s : series)
      for (double v : s.values) {
        dlo = std::min(dlo, v);
        dhi = std::max(dhi, v);
      }
    if (!(dlo < dhi)) {
      dhi = dlo + 1.0;
      dlo -= 1.0;
    }
    double pad = (dhi - dlo) * 0.05;
    if (std::isnan(lo)) lo = dlo - pad;
    if (std::isnan(hi)) hi = dhi + pad;
  }

  const int w = options.width, h = options.height;
  std::vector<std::string> grid(static_cast<std::size_t>(h),
                                std::string(static_cast<std::size_t>(w), ' '));
  const std::string glyphs = "123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ";

  auto col_of = [&](std::size_t frame) {
    if (frames <= 1) return 0;
    return static_cast<int>(static_cast<double>(frame) /
                            static_cast<double>(frames - 1) * (w - 1));
  };
  auto row_of = [&](double v) {
    double t = (v - lo) / (hi - lo);
    return std::clamp(static_cast<int>(t * (h - 1)), 0, h - 1);
  };

  for (std::size_t s = 0; s < series.size(); ++s) {
    char glyph = glyphs[s % glyphs.size()];
    // Draw segments between consecutive frames so trends read as lines.
    for (std::size_t f = 0; f + 1 < frames; ++f) {
      int x0 = col_of(f), x1 = col_of(f + 1);
      int y0 = row_of(series[s].values[f]);
      int y1 = row_of(series[s].values[f + 1]);
      int steps = std::max(std::abs(x1 - x0), std::abs(y1 - y0));
      for (int t = 0; t <= steps; ++t) {
        double a = steps == 0 ? 0.0 : static_cast<double>(t) / steps;
        int x = x0 + static_cast<int>(std::lround(a * (x1 - x0)));
        int y = y0 + static_cast<int>(std::lround(a * (y1 - y0)));
        grid[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)] = glyph;
      }
    }
    if (frames == 1)
      grid[static_cast<std::size_t>(row_of(series[s].values[0]))][0] = glyph;
  }

  std::string out;
  if (!options.y_label.empty()) out += "  " + options.y_label + "\n";
  for (int y = h - 1; y >= 0; --y) {
    double level = lo + (hi - lo) * y / (h - 1);
    out += "  " + format_double(level, 3) + " |" +
           grid[static_cast<std::size_t>(y)] + "\n";
  }
  out += "          +" + std::string(static_cast<std::size_t>(w), '-') + "\n";
  // Frame labels along the X axis (first, middle, last to keep it tidy).
  if (!frame_labels.empty()) {
    out += "           " + frame_labels.front();
    if (frame_labels.size() > 2)
      out += " ... " + frame_labels[frame_labels.size() / 2];
    if (frame_labels.size() > 1) out += " ... " + frame_labels.back();
    out += "\n";
  }
  out += "  series: ";
  std::vector<std::string> legend;
  for (std::size_t s = 0; s < series.size(); ++s)
    legend.push_back(std::string(1, glyphs[s % glyphs.size()]) + "=" +
                     series[s].label);
  out += join(legend, "  ") + "\n";
  return out;
}

Table trend_table(const TrackingResult& result, trace::Metric metric) {
  PT_SPAN("report_trend_table");
  std::vector<std::string> headers{"Region"};
  for (const auto& frame : result.frames) headers.push_back(frame.label());
  headers.push_back("Change");
  Table table(std::move(headers));

  for (const TrackedRegion& region : result.regions) {
    if (!region.complete) continue;
    std::vector<double> series =
        region_metric_mean(result, region.id, metric);
    table.begin_row();
    table.cell("Region " + std::to_string(region.id + 1));
    for (double v : series) table.cell(v, 4);
    double change =
        series.front() != 0.0 ? series.back() / series.front() - 1.0 : 0.0;
    table.cell(format_percent(change));
  }
  return table;
}

std::string tracked_scatters(const TrackingResult& result, int width,
                             int height) {
  // Common axes across the whole sequence, in the task-weighted scale the
  // tracking itself uses — render from raw coordinates but with fixed
  // bounds derived per frame dimension.
  std::string out;
  for (std::size_t f = 0; f < result.frames.size(); ++f) {
    cluster::ScatterOptions options;
    options.width = width;
    options.height = height;
    options.x_axis = 1;  // IPC on X, like the paper's figures
    options.y_axis = 0;  // Instructions on Y
    options.log_y = true;
    out += cluster::ascii_scatter(result.frames[f], options,
                                  &result.renaming[f]);
    out += "\n";
  }
  return out;
}

std::string describe_tracking(const TrackingResult& result) {
  PT_SPAN("report_describe");
  std::string out;
  for (std::size_t p = 0; p < result.pairs.size(); ++p) {
    out += "pair " + result.frames[p].label() + " -> " +
           result.frames[p + 1].label() + ":\n";
    for (const Relation& rel : result.pairs[p].relations)
      out += "  " + rel.describe() + "\n";
    for (ObjectId a : result.pairs[p].relations.unmatched_left)
      out += "  unmatched left: " + std::to_string(a + 1) + "\n";
    for (ObjectId b : result.pairs[p].relations.unmatched_right)
      out += "  unmatched right: " + std::to_string(b + 1) + "\n";
  }
  out += "tracked regions: " + std::to_string(result.complete_count) +
         " complete of " + std::to_string(result.regions.size()) +
         " total, coverage " +
         format_double(result.coverage * 100.0, 0) + "%\n";
  if (result.degraded()) {
    out += "degraded sequence: " + std::to_string(result.frames.size()) +
           " of " + std::to_string(result.sequence_length()) +
           " experiments survived, effective coverage " +
           format_double(result.effective_coverage() * 100.0, 0) + "%\n";
    for (const ExperimentGap& gap : result.gaps)
      out += "  gap at slot " + std::to_string(gap.slot + 1) + ": " +
             gap.label + (gap.reason.empty() ? "" : " (" + gap.reason + ")") +
             "\n";
  }
  for (const TrackedRegion& region : result.regions) {
    if (!region.complete) continue;
    out += "  Region " + std::to_string(region.id + 1) + ":";
    for (std::size_t f = 0; f < result.frames.size(); ++f) {
      out += " [";
      bool first = true;
      for (ObjectId o : region.members[f]) {
        if (!first) out += ",";
        out += std::to_string(o + 1);
        first = false;
      }
      out += "]";
    }
    out += "\n";
  }
  return out;
}

std::string trends_csv(const TrackingResult& result) {
  PT_SPAN("report_trends_csv");
  std::string out =
      "region,frame,label,ipc,instructions_mean,instructions_total,"
      "duration_total,l1_miss_per_ki,l2_miss_per_ki,tlb_miss_per_ki,bursts\n";
  for (const TrackedRegion& region : result.regions) {
    if (!region.complete) continue;
    const RegionTrends t = region_trends(result, region.id);
    for (std::size_t f = 0; f < result.frames.size(); ++f) {
      out += std::to_string(region.id + 1) + "," + std::to_string(f) + "," +
             result.frames[f].label() + "," + format_double(t.ipc[f], 5) +
             "," + format_double(t.instructions_mean[f], 1) + "," +
             format_double(t.instructions_total[f], 1) + "," +
             format_double(t.duration_total[f], 6) + "," +
             format_double(t.l1_miss_per_ki[f], 5) + "," +
             format_double(t.l2_miss_per_ki[f], 5) + "," +
             format_double(t.tlb_miss_per_ki[f], 5) + "," +
             std::to_string(t.bursts[f]) + "\n";
    }
  }
  return out;
}

}  // namespace perftrack::tracking
