#pragma once
// Burst-level trace model.
//
// A Trace is what library interposition (Extrae-style) would record for one
// execution of a parallel application: for every task, the time-ordered
// sequence of CPU bursts — sequential computations between calls into the
// parallel runtime — each with its duration, hardware counters and the
// call-stack reference of the code region it executes. A Trace also carries
// the experiment metadata (application, number of tasks, free-form scenario
// attributes) the tracking stage uses for labelling and scale weighting.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "trace/callstack.hpp"
#include "trace/counters.hpp"

namespace perftrack::trace {

using TaskId = std::uint32_t;

/// Most tasks a Trace may have. A Trace keeps one index vector per task, so
/// a count read from a file is checked against this before anything is
/// allocated; 2^20 is 4096 times the largest study's 256 tasks.
inline constexpr std::uint32_t kMaxTasks = std::uint32_t{1} << 20;

/// One sequential computation between two parallel-runtime calls.
struct Burst {
  TaskId task = 0;
  double begin_time = 0.0;  ///< seconds since application start
  double duration = 0.0;    ///< seconds
  CallstackId callstack = kUnknownCallstack;
  CounterSet counters;

  double end_time() const { return begin_time + duration; }
};

class Trace {
public:
  /// Throws PreconditionError unless 0 < num_tasks <= kMaxTasks.
  Trace(std::string application, std::uint32_t num_tasks);

  const std::string& application() const { return application_; }
  std::uint32_t num_tasks() const { return num_tasks_; }

  /// Short label identifying the experiment in reports ("WRF-128",
  /// "CGPOP MN/xlf", "BT class A", ...). Defaults to the application name.
  const std::string& label() const { return label_; }
  void set_label(std::string label) { label_ = std::move(label); }

  /// Free-form scenario attributes (platform, compiler, problem class, ...).
  const std::map<std::string, std::string>& attributes() const {
    return attributes_;
  }
  void set_attribute(const std::string& key, const std::string& value) {
    attributes_[key] = value;
  }
  /// Value for `key`, or `fallback` if absent.
  std::string attribute_or(const std::string& key,
                           const std::string& fallback) const;

  CallstackTable& callstacks() { return callstacks_; }
  const CallstackTable& callstacks() const { return callstacks_; }

  /// Append a burst. Bursts of one task must be added in time order.
  void add_burst(Burst burst);

  /// Make room for `bursts` bursts in all, so the adds that follow do not
  /// reallocate.
  void reserve(std::size_t bursts) { bursts_.reserve(bursts); }

  std::span<const Burst> bursts() const { return bursts_; }
  std::size_t burst_count() const { return bursts_.size(); }

  /// Indices (into bursts()) of the given task's bursts, in time order.
  std::span<const std::uint32_t> task_bursts(TaskId task) const;

  /// Sum of all burst durations (total computation time across tasks).
  double total_computation_time() const;

  /// Wall-clock end of the last burst.
  double end_time() const;

  /// Check structural invariants (task ids in range, non-negative times,
  /// per-task time ordering, callstack ids resolvable).
  /// Throws PreconditionError on violation.
  void validate() const;

private:
  std::string application_;
  std::string label_;
  std::uint32_t num_tasks_;
  std::map<std::string, std::string> attributes_;
  CallstackTable callstacks_;
  std::vector<Burst> bursts_;
  std::vector<std::vector<std::uint32_t>> per_task_;
};

}  // namespace perftrack::trace
