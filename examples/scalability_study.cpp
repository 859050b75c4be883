// Scalability study: which code regions stop scaling first?
//
// Tracks a stencil application across a 16 -> 256 task strong-scaling sweep
// (five experiments). A well-scaling region halves its per-task work at
// constant IPC; regions with replicated work or communication-bound inner
// loops drift away — the per-region trend lines expose exactly who.
//
// Build and run:  ./examples/scalability_study

#include <cstdio>
#include <iostream>

#include "common/strings.hpp"
#include "sim/app.hpp"
#include "tracking/report.hpp"
#include "tracking/session.hpp"
#include "tracking/trends.hpp"

using namespace perftrack;

namespace {

sim::AppModel make_stencil() {
  sim::AppModel app("stencil3d", /*ref_tasks=*/16.0,
                    /*default_iterations=*/20);
  {
    sim::PhaseSpec compute;
    compute.name = "stencil_sweep";
    compute.location = {"sweep", "stencil.c", 210};
    compute.base_instructions = 30e6;
    compute.base_ipc = 1.4;
    compute.working_set_kb = 96.0;
    app.add_phase(compute);  // perfect strong scaling
  }
  {
    sim::PhaseSpec boundary;
    boundary.name = "boundary_pack";
    boundary.location = {"pack", "exchange.c", 55};
    boundary.base_instructions = 4e6;
    boundary.base_ipc = 0.8;
    boundary.working_set_kb = 16.0;
    // Surface-to-volume: boundary work shrinks slower than 1/tasks.
    boundary.instr_task_exp = -0.66;
    app.add_phase(boundary);
  }
  {
    sim::PhaseSpec reduce;
    reduce.name = "global_reduce";
    reduce.location = {"reduce", "reduce.c", 31};
    reduce.base_instructions = 1e6;
    reduce.base_ipc = 1.1;
    reduce.working_set_kb = 4.0;
    // log(p) replication: total work grows with the task count.
    reduce.instr_task_exp = -0.85;
    reduce.ipc_task_exp = -0.12;
    app.add_phase(reduce);
  }
  return app;
}

}  // namespace

int main() {
  sim::AppModel app = make_stencil();
  tracking::TrackingSession session;
  for (std::uint32_t tasks : {16u, 32u, 64u, 128u, 256u}) {
    sim::Scenario scenario;
    scenario.label = std::to_string(tasks) + " tasks";
    scenario.num_tasks = tasks;
    scenario.platform = sim::minotauro();
    scenario.seed = 100 + tasks;
    session.append_experiment(app.simulate_shared(scenario));
  }

  tracking::TrackingResult result = session.retrack();
  std::cout << tracking::describe_tracking(result) << "\n";

  std::vector<std::string> labels;
  for (const auto& frame : result.frames) labels.push_back(frame.label());

  std::printf("total instructions per region (should be flat under perfect "
              "scaling):\n");
  std::vector<tracking::TrendSeries> series;
  for (const auto& region : result.regions) {
    if (!region.complete) continue;
    auto totals = tracking::relative_to_first(tracking::region_counter_total(
        result, region.id, trace::Counter::Instructions));
    series.push_back({"R" + std::to_string(region.id + 1), totals});
    std::printf("  Region %d: x%.2f total work at 16x the tasks (%s)\n",
                region.id + 1, totals.back(),
                totals.back() > 1.15 ? "replication!" : "scales");
  }
  tracking::TrendChartOptions chart;
  chart.y_label = "total instructions (vs 16 tasks)";
  std::cout << "\n" << tracking::trend_chart(series, labels, chart);
  return 0;
}
