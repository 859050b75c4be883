#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

namespace perftrack::obs {
namespace {

// Every test starts from a clean, enabled recorder and leaves telemetry
// off so neighbouring suites (which exercise the instrumented pipeline)
// are unaffected.
class TelemetryTest : public ::testing::Test {
protected:
  void SetUp() override {
    set_enabled(true);
    reset();
  }
  void TearDown() override {
    set_enabled(false);
    reset();
  }
};

const SpanNode* find_child(const SpanNode& parent, const std::string& name) {
  for (const SpanNode& child : parent.children)
    if (child.name == name) return &child;
  return nullptr;
}

TEST_F(TelemetryTest, SpansNestAndFold) {
  for (int i = 0; i < 3; ++i) {
    PT_SPAN("outer");
    {
      PT_SPAN("inner");
    }
    {
      PT_SPAN("inner");
    }
  }
  RunReport report = collect();
  const SpanNode* outer = find_child(report.root, "outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 3u);
  const SpanNode* inner = find_child(*outer, "inner");
  ASSERT_NE(inner, nullptr);
  // Two executions per outer iteration fold into one node.
  EXPECT_EQ(inner->count, 6u);
  EXPECT_TRUE(inner->children.empty());
  // A parent's wall time includes its children's.
  EXPECT_GE(outer->total_ns, inner->total_ns);
  EXPECT_EQ(outer->self_ns, outer->total_ns - inner->total_ns);
}

TEST_F(TelemetryTest, MinMaxCoverCompletedExecutions) {
  {
    PT_SPAN("fast");
  }
  {
    PT_SPAN("fast");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  RunReport report = collect();
  const SpanNode* fast = find_child(report.root, "fast");
  ASSERT_NE(fast, nullptr);
  EXPECT_EQ(fast->count, 2u);
  EXPECT_LE(fast->min_ns, fast->max_ns);
  EXPECT_GE(fast->max_ns, 2000000u) << "slow execution sets the max";
  EXPECT_LT(fast->min_ns, 2000000u) << "fast execution sets the min";
  // min + max are bounded by the fold's own accounting.
  EXPECT_LE(fast->min_ns + fast->max_ns, fast->total_ns);
}

TEST_F(TelemetryTest, OpenSpanCountsTowardTotalButNotMinMax) {
  ScopedSpan* open = new ScopedSpan("pending");
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  RunReport report = collect();
  const SpanNode* pending = find_child(report.root, "pending");
  ASSERT_NE(pending, nullptr);
  EXPECT_EQ(pending->count, 1u);
  EXPECT_GT(pending->total_ns, 0u);
  EXPECT_EQ(pending->min_ns, 0u) << "no completed execution yet";
  EXPECT_EQ(pending->max_ns, 0u);
  delete open;
}

TEST_F(TelemetryTest, CountersAttachToActiveSpanAndSum) {
  {
    PT_SPAN("stage");
    PT_COUNTER("widgets", 2.0);
    PT_COUNTER("widgets", 3.0);
  }
  {
    PT_SPAN("stage");
    PT_COUNTER("widgets", 5.0);
  }
  RunReport report = collect();
  const SpanNode* stage = find_child(report.root, "stage");
  ASSERT_NE(stage, nullptr);
  ASSERT_EQ(stage->counters.count("widgets"), 1u);
  EXPECT_DOUBLE_EQ(stage->counters.at("widgets"), 10.0);
  // Counters also roll up into the run-wide totals.
  ASSERT_EQ(report.counters.count("widgets"), 1u);
  EXPECT_DOUBLE_EQ(report.counters.at("widgets"), 10.0);
}

TEST_F(TelemetryTest, CounterOutsideAnySpanGoesToRoot) {
  PT_COUNTER("stray", 4.0);
  RunReport report = collect();
  ASSERT_EQ(report.root.counters.count("stray"), 1u);
  EXPECT_DOUBLE_EQ(report.root.counters.at("stray"), 4.0);
}

TEST_F(TelemetryTest, GaugeLastWriteWins) {
  PT_GAUGE("eps", 0.01);
  PT_GAUGE("eps", 0.05);
  RunReport report = collect();
  ASSERT_EQ(report.gauges.count("eps"), 1u);
  EXPECT_DOUBLE_EQ(report.gauges.at("eps"), 0.05);
}

TEST_F(TelemetryTest, GaugeLastWriteWinsAcrossThreadsByTimestamp) {
  // The main thread registers its event buffer first, a worker second.
  // The *chronologically last* write must win even though the folding
  // order visits the main thread's stream first — i.e. a later write on
  // an earlier-registered thread beats an earlier write on a
  // later-registered one, and vice versa.
  PT_GAUGE("load", 1.0);
  std::thread([] { PT_GAUGE("load", 2.0); }).join();
  PT_GAUGE("load", 3.0);
  RunReport after_main = collect();
  EXPECT_DOUBLE_EQ(after_main.gauges.at("load"), 3.0);

  std::thread([] { PT_GAUGE("load", 4.0); }).join();
  RunReport after_worker = collect();
  EXPECT_DOUBLE_EQ(after_worker.gauges.at("load"), 4.0);
}

TEST_F(TelemetryTest, DisabledRecordingIsANoOp) {
  set_enabled(false);
  EXPECT_FALSE(enabled());
  {
    PT_SPAN("ghost");
    PT_COUNTER("ghost_counter", 1.0);
    PT_GAUGE("ghost_gauge", 1.0);
  }
  RunReport report = collect();
  EXPECT_TRUE(report.root.children.empty());
  EXPECT_TRUE(report.counters.empty());
  EXPECT_TRUE(report.gauges.empty());
  for (const ThreadTimeline& timeline : timelines())
    EXPECT_TRUE(timeline.events.empty());
}

TEST_F(TelemetryTest, ResetDiscardsRecordedEvents) {
  {
    PT_SPAN("before_reset");
  }
  reset();
  RunReport report = collect();
  EXPECT_EQ(find_child(report.root, "before_reset"), nullptr);
  EXPECT_TRUE(report.counters.empty());
}

TEST_F(TelemetryTest, ThreadsMergeByName) {
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([] {
      PT_SPAN("worker");
      PT_COUNTER("work_items", 2.0);
    });
  for (auto& w : workers) w.join();

  RunReport report = collect();
  const SpanNode* worker = find_child(report.root, "worker");
  ASSERT_NE(worker, nullptr);
  EXPECT_EQ(worker->count, static_cast<std::uint64_t>(kThreads));
  EXPECT_DOUBLE_EQ(worker->counters.at("work_items"), 2.0 * kThreads);

  // Each recording thread keeps its own timeline.
  std::size_t threads_with_events = 0;
  for (const ThreadTimeline& timeline : timelines())
    if (!timeline.events.empty()) ++threads_with_events;
  EXPECT_GE(threads_with_events, static_cast<std::size_t>(kThreads));
}

TEST_F(TelemetryTest, CollectIsNonDestructive) {
  {
    PT_SPAN("stable");
  }
  RunReport first = collect();
  RunReport second = collect();
  ASSERT_NE(find_child(first.root, "stable"), nullptr);
  ASSERT_NE(find_child(second.root, "stable"), nullptr);
  EXPECT_EQ(find_child(first.root, "stable")->count,
            find_child(second.root, "stable")->count);
}

TEST_F(TelemetryTest, NowNsIsMonotonic) {
  std::uint64_t a = now_ns();
  std::uint64_t b = now_ns();
  EXPECT_LE(a, b);
}

// ctest runs every case in its own process, so nothing in this one touches
// telemetry before the sleep: the report's wall time must still cover it,
// because the clock starts with the process, not with the first event.
TEST(TelemetryClockTest, WallTimeCoversTimeBeforeTheFirstEvent) {
  const std::chrono::milliseconds before_first_event(50);
  std::this_thread::sleep_for(before_first_event);
  const RunReport report = collect();
  EXPECT_GE(report.wall_ns,
            static_cast<std::uint64_t>(
                std::chrono::nanoseconds(before_first_event).count()));
}

}  // namespace
}  // namespace perftrack::obs
