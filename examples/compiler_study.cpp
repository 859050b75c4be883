// Compiler/platform study: how do vendor compilers change an application's
// behaviour — and does it actually run faster? (The paper's §4.1.)
//
// Demonstrates building a custom application model from scratch: a small
// conjugate-gradient solver with a matvec and a halo exchange, run under
// four (platform, compiler) combinations, then tracked.
//
// Build and run:  ./examples/compiler_study

#include <cstdio>
#include <iostream>

#include "common/strings.hpp"
#include "sim/app.hpp"
#include "tracking/report.hpp"
#include "tracking/session.hpp"
#include "tracking/trends.hpp"

using namespace perftrack;

namespace {

sim::AppModel make_solver() {
  sim::AppModel app("toy-cg", /*ref_tasks=*/64.0, /*default_iterations=*/30);
  {
    sim::PhaseSpec matvec;
    matvec.name = "matvec";
    matvec.location = {"matvec", "solver.f90", 120};
    matvec.base_instructions = 5e6;
    matvec.base_ipc = 0.9;
    matvec.working_set_kb = 24.0;
    matvec.repeats = 2;
    app.add_phase(matvec);
  }
  {
    sim::PhaseSpec halo;
    halo.name = "halo_update";
    halo.location = {"halo_update", "comm.f90", 88};
    halo.base_instructions = 1.2e6;
    halo.base_ipc = 0.55;
    halo.working_set_kb = 8.0;
    app.add_phase(halo);
  }
  return app;
}

}  // namespace

int main() {
  sim::AppModel solver = make_solver();

  tracking::TrackingSession session;
  struct Config {
    sim::Platform platform;
    sim::CompilerModel compiler;
  };
  for (const Config& config :
       {Config{sim::marenostrum(), sim::gfortran()},
        Config{sim::marenostrum(), sim::xlf()},
        Config{sim::minotauro(), sim::gfortran()},
        Config{sim::minotauro(), sim::ifort()}}) {
    sim::Scenario scenario;
    scenario.label = config.platform.name + "/" + config.compiler.name;
    scenario.num_tasks = 64;
    scenario.platform = config.platform;
    scenario.compiler = config.compiler;
    session.append_experiment(solver.simulate_shared(scenario));
  }

  tracking::TrackingResult result = session.retrack();
  std::cout << tracking::describe_tracking(result) << "\n";

  std::printf("%-28s %12s %10s %12s\n", "experiment", "instructions", "IPC",
              "region time");
  for (const auto& region : result.regions) {
    if (!region.complete) continue;
    auto instr = tracking::region_metric_mean(result, region.id,
                                              trace::Metric::Instructions);
    auto ipc =
        tracking::region_metric_mean(result, region.id, trace::Metric::Ipc);
    auto time = tracking::region_duration_total(result, region.id);
    std::printf("Region %d\n", region.id + 1);
    for (std::size_t f = 0; f < result.frames.size(); ++f)
      std::printf("  %-26s %12s %10.3f %11.3fs\n",
                  result.frames[f].label().c_str(),
                  format_si(instr[f]).c_str(), ipc[f], time[f]);
  }
  std::printf(
      "\nTakeaway: a vendor compiler that removes a third of the\n"
      "instructions at a third less IPC buys you nothing — compare the\n"
      "region times, not the instruction counts.\n");
  return 0;
}
