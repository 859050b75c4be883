// Quickstart: track how an application's behaviour evolves when the
// process count doubles.
//
// Demonstrates the core API in ~40 effective lines:
//   1. obtain traces (here: simulated; in production, load .ptt files),
//   2. feed them to a TrackingSession,
//   3. read back tracked regions, relations and per-region trends.
//
// Build and run:  ./examples/quickstart

#include <cstdio>
#include <iostream>

#include "sim/apps/apps.hpp"
#include "tracking/report.hpp"
#include "tracking/session.hpp"
#include "tracking/trends.hpp"

using namespace perftrack;

int main() {
  // 1. Two experiments: the same weather model at 128 and 256 tasks.
  sim::AppModel wrf = sim::make_wrf();
  sim::Scenario at_128;
  at_128.label = "WRF-128";
  at_128.num_tasks = 128;
  at_128.platform = sim::marenostrum();
  sim::Scenario at_256 = at_128;
  at_256.label = "WRF-256";
  at_256.num_tasks = 256;

  // 2. Cluster each experiment into behavioural regions and track them.
  tracking::SessionConfig config;
  config.clustering.dbscan.eps = 0.025;
  config.clustering.min_cluster_time_fraction = 0.005;

  tracking::TrackingSession session(config);
  session.append_experiment(wrf.simulate_shared(at_128));
  session.append_experiment(wrf.simulate_shared(at_256));
  tracking::TrackingResult result = session.retrack();

  // 3. What corresponds to what, and how did it change?
  std::cout << tracking::describe_tracking(result) << "\n";
  std::cout << "IPC per region:\n"
            << tracking::trend_table(result, trace::Metric::Ipc).to_text(2);

  std::printf("\n%zu regions tracked across both experiments (coverage "
              "%.0f%%)\n",
              result.complete_count, result.coverage * 100.0);
  return 0;
}
