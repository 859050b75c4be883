// Evolution study: tracking behaviour *within one experiment* (§1, §6:
// "different time intervals within the same experiment").
//
// Simulates one long molecular-dynamics run whose neighbour lists slowly
// grow and whose PME performance drifts, slices the single trace into 10
// wall-clock intervals, and tracks the regions across them. Also writes an
// animated HTML report — the paper's "simple animation" of Fig. 6.
//
// Build and run:  ./examples/evolution_study

#include <cstdio>
#include <iostream>

#include "sim/apps/apps.hpp"
#include "trace/slice.hpp"
#include "tracking/html_report.hpp"
#include "tracking/report.hpp"
#include "tracking/session.hpp"
#include "tracking/trends.hpp"

using namespace perftrack;

int main() {
  // One long run: simulate drift by chaining short scenarios in time and
  // concatenating them into a single trace, then slice it back.
  sim::AppModel app = sim::make_gromacs(true);
  trace::Trace run("Gromacs", 32);
  run.set_label("Gromacs production run");
  double clock_offset = 0.0;
  for (int segment = 0; segment < 10; ++segment) {
    sim::Scenario scenario;
    scenario.num_tasks = 32;
    scenario.problem_scale = 1.0 + 0.05 * segment;  // slow drift
    scenario.platform = sim::minotauro();
    scenario.seed = 500 + static_cast<std::uint64_t>(segment);
    scenario.iterations = 4;
    trace::Trace part = app.simulate(scenario);
    for (const trace::Burst& burst : part.bursts()) {
      trace::Burst shifted = burst;
      shifted.begin_time += clock_offset;
      shifted.callstack = run.callstacks().intern(
          part.callstacks().resolve(burst.callstack));
      run.add_burst(shifted);
    }
    clock_offset += part.end_time();
  }
  std::printf("one run: %zu bursts over %.2fs\n", run.burst_count(),
              run.end_time());

  // Slice into intervals and track the sequence.
  auto slices = trace::split_into_intervals(run, 10);
  tracking::TrackingSession session;
  for (auto& slice : slices) session.append_experiment(slice);
  tracking::TrackingResult result = session.retrack();

  std::cout << tracking::describe_tracking(result) << "\n";
  for (const auto& region : result.regions) {
    if (!region.complete) continue;
    auto instr = tracking::region_metric_mean(result, region.id,
                                              trace::Metric::Instructions);
    double growth = instr.back() / instr.front() - 1.0;
    std::printf("Region %d: per-burst instructions %+.1f%% over the run%s\n",
                region.id + 1, growth * 100.0,
                growth > 0.10 ? "  <- growing phase" : "");
  }

  tracking::HtmlReportOptions html;
  html.title = "Gromacs production run — behaviour evolution";
  tracking::save_html_report("gromacs_evolution.html", result, html);
  std::printf("\nanimated report written to gromacs_evolution.html\n");
  return 0;
}
