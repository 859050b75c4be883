// Resource-sharing study: what does co-locating tasks on a node cost?
// (The paper's §4.3, generalised.)
//
// Runs the same 12-task job under every placement from one task per node
// to a fully packed node, and correlates the per-region IPC against the
// cache/TLB counters to show *why* it degrades.
//
// Build and run:  ./examples/resource_sharing_study

#include <cstdio>
#include <iostream>

#include "sim/apps/apps.hpp"
#include "tracking/report.hpp"
#include "tracking/session.hpp"
#include "tracking/trends.hpp"

using namespace perftrack;

int main() {
  sim::AppModel app = sim::make_mrgenesis();

  tracking::SessionConfig config;
  config.clustering.dbscan.eps = 0.08;
  tracking::TrackingSession session(config);
  for (std::uint32_t per_node = 1; per_node <= 12; ++per_node) {
    sim::Scenario scenario;
    scenario.label = std::to_string(per_node) + "/node";
    scenario.num_tasks = 12;
    scenario.tasks_per_node = per_node;
    scenario.platform = sim::minotauro();
    scenario.seed = 40 + per_node;
    session.append_experiment(app.simulate_shared(scenario));
  }
  tracking::TrackingResult result = session.retrack();

  std::vector<std::string> labels;
  for (const auto& frame : result.frames) labels.push_back(frame.label());

  for (const auto& region : result.regions) {
    if (!region.complete) continue;
    auto ipc =
        tracking::region_metric_mean(result, region.id, trace::Metric::Ipc);
    std::printf("Region %d: IPC %.2f alone -> %.2f packed (%.1f%%)\n",
                region.id + 1, ipc.front(), ipc.back(),
                (ipc.back() / ipc.front() - 1.0) * 100.0);
  }

  // Correlate all metrics of the dominant region, each relative to its
  // maximum — the paper's Fig. 11b view.
  const auto& region = result.regions.front();
  std::vector<tracking::TrendSeries> series{
      {"IPC", tracking::relative_to_max(tracking::region_metric_mean(
                  result, region.id, trace::Metric::Ipc))},
      {"L2/Ki", tracking::relative_to_max(tracking::region_metric_mean(
                    result, region.id, trace::Metric::L2MissesPerKi))},
      {"TLB/Ki", tracking::relative_to_max(tracking::region_metric_mean(
                     result, region.id, trace::Metric::TlbMissesPerKi))},
  };
  tracking::TrendChartOptions chart;
  chart.y_label = "fraction of metric maximum (region 1)";
  std::cout << "\n" << tracking::trend_chart(series, labels, chart);
  std::printf(
      "\nThe IPC loss tracks the growth of L2/TLB misses: co-located tasks\n"
      "compete for shared cache and memory bandwidth. Placement is free —\n"
      "this chart tells you what the last 4 tasks per node cost.\n");
  return 0;
}
