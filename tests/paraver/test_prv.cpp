#include "paraver/prv.hpp"

#include <cstdio>
#include <gtest/gtest.h>
#include <sstream>

#include "common/error.hpp"
#include "sim/apps/apps.hpp"
#include "testing/test_traces.hpp"

namespace perftrack::paraver {
namespace {

using perftrack::testing::MiniPhase;
using perftrack::testing::MiniTraceSpec;
using perftrack::testing::make_mini_trace;

std::shared_ptr<const trace::Trace> sample_trace() {
  MiniTraceSpec spec;
  spec.label = "sample";
  spec.tasks = 3;
  spec.iterations = 4;
  spec.phases = {MiniPhase{2e6, 1.0, {"solve", "solver.f90", 42}},
                 MiniPhase{5e5, 2.0, {"halo", "comm.f90", 7}}};
  return make_mini_trace(spec);
}

trace::Trace round_trip(const trace::Trace& original) {
  std::stringstream prv, pcf;
  detail::write_prv_streams(prv, pcf, original);
  return detail::read_prv_streams(prv, pcf);
}

TEST(PrvRoundTrip, BurstsSurvive) {
  auto original = sample_trace();
  trace::Trace loaded = round_trip(*original);
  EXPECT_EQ(loaded.application(), original->application());
  EXPECT_EQ(loaded.num_tasks(), original->num_tasks());
  ASSERT_EQ(loaded.burst_count(), original->burst_count());
  // Bursts may be reordered globally (sorted by time) but per task the
  // sequences must match exactly up to 1 ns quantisation.
  for (std::uint32_t task = 0; task < original->num_tasks(); ++task) {
    auto lhs = original->task_bursts(task);
    auto rhs = loaded.task_bursts(task);
    ASSERT_EQ(lhs.size(), rhs.size());
    for (std::size_t i = 0; i < lhs.size(); ++i) {
      const trace::Burst& a = original->bursts()[lhs[i]];
      const trace::Burst& b = loaded.bursts()[rhs[i]];
      EXPECT_NEAR(a.begin_time, b.begin_time, 2e-9);
      EXPECT_NEAR(a.duration, b.duration, 2e-9);
      EXPECT_NEAR(a.counters.get(trace::Counter::Instructions),
                  b.counters.get(trace::Counter::Instructions), 0.51);
      EXPECT_NEAR(a.counters.get(trace::Counter::Cycles),
                  b.counters.get(trace::Counter::Cycles), 0.51);
      EXPECT_EQ(original->callstacks().resolve(a.callstack),
                loaded.callstacks().resolve(b.callstack));
    }
  }
}

TEST(PrvRoundTrip, SimulatedApplicationSurvives) {
  sim::AppModel app = sim::make_hydroc();
  sim::Scenario scenario;
  scenario.label = "hydroc";
  scenario.num_tasks = 4;
  scenario.block_kb = 32.0;
  scenario.iterations = 6;
  trace::Trace original = app.simulate(scenario);
  trace::Trace loaded = round_trip(original);
  EXPECT_EQ(loaded.burst_count(), original.burst_count());
  double total_in = original.total_computation_time();
  double total_out = loaded.total_computation_time();
  EXPECT_NEAR(total_out, total_in, total_in * 1e-6);
}

TEST(PrvRoundTrip, FileApi) {
  auto original = sample_trace();
  std::string base = ::testing::TempDir() + "/pt_prv_test";
  save_prv(base, *original);
  trace::Trace loaded = load_prv(base);
  EXPECT_EQ(loaded.burst_count(), original->burst_count());
  std::remove((base + ".prv").c_str());
  std::remove((base + ".pcf").c_str());
}

TEST(PrvRead, MissingHeaderThrows) {
  std::stringstream prv("1:1:1:1:1:0:100:1\n");
  std::stringstream pcf;
  EXPECT_THROW(detail::read_prv_streams(prv, pcf), ParseError);
}

TEST(PrvRead, TaskCountAboveTheCapIsAFatalHeaderError) {
  // 2^32 + 1 was once truncated to 1 task; 2^32 - 1 fits 32 bits but a
  // Trace sizes one index per task. Both are fatal in both modes, before
  // anything is allocated.
  for (const char* count : {"4294967297", "4294967295", "1048577"}) {
    SCOPED_TRACE(count);
    const std::string text =
        std::string("#Paraver (01/01/2026 at 00:00):1000_ns:1(1):1:") +
        count + "(1:1)\n1:1:1:1:1:0:100:1\n";
    const std::string message = std::string("header declares ") + count +
                                " tasks, above the limit of 1048576";
    std::stringstream prv(text), pcf;
    try {
      detail::read_prv_streams(prv, pcf);
      ADD_FAILURE() << "strict read accepted the header";
    } catch (const ParseError& error) {
      EXPECT_EQ(std::string(error.what()), message);
    }
    std::stringstream lenient_prv(text), lenient_pcf;
    Diagnostics lenient = Diagnostics::lenient();
    EXPECT_THROW(detail::read_prv_streams(lenient_prv, lenient_pcf, lenient),
                 ParseError);
    EXPECT_EQ(lenient.to_string(), "error: 1: [bad-header] " + message + "\n");
  }
}

TEST(PrvRead, TaskOutOfRangeThrows) {
  std::stringstream prv(
      "#Paraver (01/01/2026 at 00:00):1000_ns:1(1):1:1(1:1)\n"
      "1:9:1:9:1:0:100:1\n");
  std::stringstream pcf;
  EXPECT_THROW(detail::read_prv_streams(prv, pcf), ParseError);
}

TEST(PrvRead, BadStateIntervalThrows) {
  std::stringstream prv(
      "#Paraver (01/01/2026 at 00:00):1000_ns:1(1):1:1(1:1)\n"
      "1:1:1:1:1:200:100:1\n");
  std::stringstream pcf;
  EXPECT_THROW(detail::read_prv_streams(prv, pcf), ParseError);
}

TEST(PrvRead, UnknownRecordKindThrows) {
  std::stringstream prv(
      "#Paraver (01/01/2026 at 00:00):1000_ns:1(1):1:1(1:1)\n"
      "7:1:1:1:1:0\n");
  std::stringstream pcf;
  EXPECT_THROW(detail::read_prv_streams(prv, pcf), ParseError);
}

TEST(PrvRead, CommRecordsAreSkipped) {
  std::stringstream prv(
      "#Paraver (01/01/2026 at 00:00):1000_ns:1(2):1:2(1:1,1:1)\n"
      "3:1:1:1:1:0:0:2:1:2:1:10:10:8:1\n"
      "1:1:1:1:1:0:100:1\n"
      "2:1:1:1:1:100:42000050:1000:42000059:2000\n");
  std::stringstream pcf;
  trace::Trace loaded = detail::read_prv_streams(prv, pcf);
  EXPECT_EQ(loaded.burst_count(), 1u);
  EXPECT_DOUBLE_EQ(
      loaded.bursts()[0].counters.get(trace::Counter::Instructions), 1000.0);
}

TEST(PrvRead, NonRunningStatesIgnored) {
  std::stringstream prv(
      "#Paraver (01/01/2026 at 00:00):1000_ns:1(1):1:1(1:1)\n"
      "1:1:1:1:1:0:50:7\n"   // state 7: not running
      "1:1:1:1:1:50:100:1\n"
      "2:1:1:1:1:100:42000050:5:42000059:10\n");
  std::stringstream pcf;
  trace::Trace loaded = detail::read_prv_streams(prv, pcf);
  ASSERT_EQ(loaded.burst_count(), 1u);
  EXPECT_NEAR(loaded.bursts()[0].begin_time, 50e-9, 1e-12);
}

TEST(PrvRead, UnknownCallerValueThrows) {
  std::stringstream prv(
      "#Paraver (01/01/2026 at 00:00):1000_ns:1(1):1:1(1:1)\n"
      "1:1:1:1:1:0:100:1\n"
      "2:1:1:1:1:100:42000050:5:30000000:77\n");
  std::stringstream pcf;
  EXPECT_THROW(detail::read_prv_streams(prv, pcf), ParseError);
}

}  // namespace
}  // namespace perftrack::paraver
