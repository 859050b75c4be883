#include "trace/trace.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace perftrack::trace {

namespace {

/// Checked before per_task_ is sized from it.
std::uint32_t checked_task_count(std::uint32_t num_tasks) {
  PT_REQUIRE(num_tasks > 0, "trace needs at least one task");
  PT_REQUIRE(num_tasks <= kMaxTasks, "trace task count above kMaxTasks");
  return num_tasks;
}

}  // namespace

Trace::Trace(std::string application, std::uint32_t num_tasks)
    : application_(std::move(application)),
      label_(application_),
      num_tasks_(checked_task_count(num_tasks)),
      per_task_(num_tasks_) {}

std::string Trace::attribute_or(const std::string& key,
                                const std::string& fallback) const {
  auto it = attributes_.find(key);
  return it == attributes_.end() ? fallback : it->second;
}

void Trace::add_burst(Burst burst) {
  PT_REQUIRE(burst.task < num_tasks_, "burst task id out of range");
  PT_REQUIRE(burst.duration >= 0.0, "burst duration must be non-negative");
  auto& seq = per_task_[burst.task];
  if (!seq.empty()) {
    const Burst& prev = bursts_[seq.back()];
    PT_REQUIRE(burst.begin_time >= prev.begin_time,
               "bursts of a task must be added in time order");
  }
  seq.push_back(static_cast<std::uint32_t>(bursts_.size()));
  bursts_.push_back(burst);
}

std::span<const std::uint32_t> Trace::task_bursts(TaskId task) const {
  PT_REQUIRE(task < num_tasks_, "task id out of range");
  return per_task_[task];
}

double Trace::total_computation_time() const {
  double s = 0.0;
  for (const Burst& b : bursts_) s += b.duration;
  return s;
}

double Trace::end_time() const {
  double t = 0.0;
  for (const Burst& b : bursts_) t = std::max(t, b.end_time());
  return t;
}

void Trace::validate() const {
  for (std::uint32_t task = 0; task < num_tasks_; ++task) {
    double prev_begin = -1.0;
    for (std::uint32_t idx : per_task_[task]) {
      PT_REQUIRE(idx < bursts_.size(), "burst index out of range");
      const Burst& b = bursts_[idx];
      PT_REQUIRE(b.task == task, "per-task index lists a foreign burst");
      PT_REQUIRE(b.begin_time >= 0.0, "negative begin time");
      PT_REQUIRE(b.duration >= 0.0, "negative duration");
      PT_REQUIRE(b.begin_time >= prev_begin, "per-task bursts out of order");
      prev_begin = b.begin_time;
      // resolve() throws if the id is unknown to the table.
      callstacks_.resolve(b.callstack);
    }
  }
}

}  // namespace perftrack::trace
