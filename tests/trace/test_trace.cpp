#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace perftrack::trace {
namespace {

Burst burst_at(TaskId task, double begin, double duration = 0.1) {
  Burst b;
  b.task = task;
  b.begin_time = begin;
  b.duration = duration;
  return b;
}

TEST(TraceTest, RequiresAtLeastOneTask) {
  EXPECT_THROW(Trace("app", 0), PreconditionError);
}

TEST(TraceTest, RejectsTaskCountsAboveTheCap) {
  // Checked before the per-task index is sized, so no path allocates it.
  EXPECT_THROW(Trace("app", kMaxTasks + 1), PreconditionError);
  EXPECT_THROW(Trace("app", 4294967295u), PreconditionError);
  EXPECT_EQ(Trace("app", kMaxTasks).num_tasks(), kMaxTasks);
}

TEST(TraceTest, LabelDefaultsToApplication) {
  Trace t("WRF", 4);
  EXPECT_EQ(t.label(), "WRF");
  t.set_label("WRF-128");
  EXPECT_EQ(t.label(), "WRF-128");
  EXPECT_EQ(t.application(), "WRF");
}

TEST(TraceTest, Attributes) {
  Trace t("app", 1);
  t.set_attribute("compiler", "xlf");
  EXPECT_EQ(t.attribute_or("compiler", "?"), "xlf");
  EXPECT_EQ(t.attribute_or("missing", "fallback"), "fallback");
  t.set_attribute("compiler", "ifort");  // overwrite
  EXPECT_EQ(t.attributes().at("compiler"), "ifort");
}

TEST(TraceTest, AddBurstValidatesTaskId) {
  Trace t("app", 2);
  EXPECT_THROW(t.add_burst(burst_at(2, 0.0)), PreconditionError);
}

TEST(TraceTest, AddBurstRejectsNegativeDuration) {
  Trace t("app", 1);
  EXPECT_THROW(t.add_burst(burst_at(0, 0.0, -1.0)), PreconditionError);
}

TEST(TraceTest, AddBurstEnforcesPerTaskTimeOrder) {
  Trace t("app", 2);
  t.add_burst(burst_at(0, 1.0));
  t.add_burst(burst_at(1, 0.5));  // other task: independent clock
  EXPECT_THROW(t.add_burst(burst_at(0, 0.5)), PreconditionError);
  t.add_burst(burst_at(0, 1.0));  // equal begin is allowed
}

TEST(TraceTest, TaskBurstsPreserveOrderAcrossInterleaving) {
  Trace t("app", 2);
  t.add_burst(burst_at(0, 0.0));
  t.add_burst(burst_at(1, 0.0));
  t.add_burst(burst_at(0, 1.0));
  t.add_burst(burst_at(1, 2.0));
  auto t0 = t.task_bursts(0);
  ASSERT_EQ(t0.size(), 2u);
  EXPECT_DOUBLE_EQ(t.bursts()[t0[0]].begin_time, 0.0);
  EXPECT_DOUBLE_EQ(t.bursts()[t0[1]].begin_time, 1.0);
  EXPECT_THROW(t.task_bursts(5), PreconditionError);
}

TEST(TraceTest, Totals) {
  Trace t("app", 2);
  t.add_burst(burst_at(0, 0.0, 0.5));
  t.add_burst(burst_at(1, 1.0, 0.25));
  EXPECT_DOUBLE_EQ(t.total_computation_time(), 0.75);
  EXPECT_DOUBLE_EQ(t.end_time(), 1.25);
  EXPECT_EQ(t.burst_count(), 2u);
}

TEST(TraceTest, ValidatePassesOnWellFormed) {
  Trace t("app", 2);
  t.callstacks().intern({"f", "x.c", 1});
  Burst b = burst_at(0, 0.0);
  b.callstack = 1;
  t.add_burst(b);
  EXPECT_NO_THROW(t.validate());
}

TEST(TraceTest, ValidateCatchesUnknownCallstack) {
  Trace t("app", 1);
  Burst b = burst_at(0, 0.0);
  b.callstack = 7;  // never interned
  t.add_burst(b);
  EXPECT_THROW(t.validate(), PreconditionError);
}

}  // namespace
}  // namespace perftrack::trace
