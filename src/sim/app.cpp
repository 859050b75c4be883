#include "sim/app.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/telemetry.hpp"

namespace perftrack::sim {

AppModel::AppModel(std::string name, double ref_tasks,
                   int default_iterations)
    : name_(std::move(name)),
      ref_tasks_(ref_tasks),
      default_iterations_(default_iterations) {
  PT_REQUIRE(ref_tasks > 0.0, "reference task count must be positive");
  PT_REQUIRE(default_iterations > 0, "iteration count must be positive");
}

void AppModel::add_phase(PhaseSpec phase) {
  PT_REQUIRE(!phase.name.empty(), "phase needs a name");
  PT_REQUIRE(phase.repeats >= 1, "phase repeats must be >= 1");
  phases_.push_back(std::move(phase));
}

trace::Trace AppModel::simulate(const Scenario& scenario) const {
  PT_SPAN("simulate");
  PT_REQUIRE(!phases_.empty(), "application model has no phases");
  PT_REQUIRE(scenario.num_tasks > 0, "scenario needs at least one task");

  trace::Trace out(name_, scenario.num_tasks);
  out.set_label(scenario.label.empty() ? name_ : scenario.label);
  out.set_attribute("platform", scenario.platform.name);
  out.set_attribute("compiler", scenario.compiler.name);
  out.set_attribute("tasks_per_node",
                    std::to_string(scenario.effective_tasks_per_node()));
  out.set_attribute("problem_scale", std::to_string(scenario.problem_scale));
  if (scenario.block_kb > 0.0)
    out.set_attribute("block_kb", std::to_string(scenario.block_kb));
  for (const auto& [key, value] : scenario.extra)
    out.set_attribute(key, value);

  // Intern every phase location up front so callstack ids are stable.
  std::vector<trace::CallstackId> phase_callstack;
  phase_callstack.reserve(phases_.size());
  for (const PhaseSpec& phase : phases_)
    phase_callstack.push_back(out.callstacks().intern(phase.location));

  const int iterations = scenario.iterations > 0 ? scenario.iterations
                                                 : default_iterations_;
  const double clock_hz = scenario.platform.clock_ghz * 1e9;
  Rng scenario_rng(scenario.seed);

  // Interleave by (iteration, phase, task) but bursts are appended per task
  // in time order, which Trace requires; we keep a clock per task.
  std::vector<double> clock(scenario.num_tasks, 0.0);

  for (std::uint32_t task = 0; task < scenario.num_tasks; ++task) {
    Rng task_rng = scenario_rng.derive("task", task);
    for (int iter = 0; iter < iterations; ++iter) {
      for (std::size_t pi = 0; pi < phases_.size(); ++pi) {
        const PhaseSpec& phase = phases_[pi];
        PhaseSpec::Sample sample =
            phase.evaluate(scenario, task, ref_tasks_);
        for (int rep = 0; rep < phase.repeats; ++rep) {
          Rng burst_rng = task_rng.derive(
              phase.name,
              static_cast<std::uint64_t>(iter) * 64 +
                  static_cast<std::uint64_t>(rep));

          double instr =
              sample.instructions *
              burst_rng.jitter(phase.noise_instr * scenario.noise_scale);
          double ipc_ideal =
              sample.ipc_ideal *
              burst_rng.jitter(phase.noise_ipc * scenario.noise_scale);

          MissRates rates = cache_.rates(sample.working_set_kb, scenario);
          rates.l1 *= phase.miss_sensitivity;
          rates.l2 *= phase.miss_sensitivity;
          rates.tlb *= phase.miss_sensitivity;
          double cpi = cache_.cpi(ipc_ideal, rates, scenario);
          double cycles = instr * cpi;
          double duration = cycles / clock_hz;

          trace::Burst burst;
          burst.task = task;
          burst.begin_time = clock[task];
          burst.duration = duration;
          burst.callstack = phase_callstack[pi];
          burst.counters.set(trace::Counter::Instructions, instr);
          burst.counters.set(trace::Counter::Cycles, cycles);
          burst.counters.set(trace::Counter::L1DMisses, instr * rates.l1);
          burst.counters.set(trace::Counter::L2Misses, instr * rates.l2);
          burst.counters.set(trace::Counter::TlbMisses, instr * rates.tlb);
          out.add_burst(burst);

          // Communication gap before the next burst.
          double gap = duration * comm_fraction_ *
                       burst_rng.jitter(0.2);
          clock[task] += duration + gap;
        }
      }
    }
  }
  return out;
}

std::shared_ptr<const trace::Trace> AppModel::simulate_shared(
    const Scenario& scenario) const {
  return std::make_shared<const trace::Trace>(simulate(scenario));
}

}  // namespace perftrack::sim
