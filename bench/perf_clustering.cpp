// Microbenchmark — DBSCAN and frame building at study-sized point counts,
// plus the comparison behind docs/PERFORMANCE.md: production dbscan()
// (the grid engine on every study frame) against the reference BFS over a
// kd-tree in tests/testing/dbscan_reference.hpp.
//
// Run with no arguments to get the comparison over the ten case studies
// (written to BENCH_clustering.json) followed by the google-benchmark
// microbenchmarks; benchmark flags pass through, so
// --benchmark_list_tests=true runs the comparison alone (as CI does).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_util.hpp"
#include "cluster/frame.hpp"
#include "obs/telemetry.hpp"
#include "sim/apps/apps.hpp"
#include "sim/studies.hpp"
#include "testing/dbscan_reference.hpp"

using namespace perftrack;

namespace {

std::shared_ptr<const trace::Trace> wrf_trace(std::uint32_t tasks) {
  static std::map<std::uint32_t, std::shared_ptr<const trace::Trace>> cache;
  auto it = cache.find(tasks);
  if (it != cache.end()) return it->second;
  sim::AppModel app = sim::make_wrf();
  sim::Scenario s;
  s.label = "WRF-" + std::to_string(tasks);
  s.num_tasks = tasks;
  s.platform = sim::marenostrum();
  auto trace = app.simulate_shared(s);
  cache[tasks] = trace;
  return trace;
}

geom::PointSet wrf_points(std::uint32_t tasks,
                          const cluster::ClusteringParams& params) {
  auto trace = wrf_trace(tasks);
  cluster::Projection proj = cluster::project(*trace, params.projection);
  cluster::Transform transform =
      cluster::Transform::fit(proj.points, params.log_scale);
  return transform.apply(proj.points);
}

void BM_DbscanKdTree(benchmark::State& state) {
  cluster::ClusteringParams params = sim::default_clustering();
  geom::PointSet normalized =
      wrf_points(static_cast<std::uint32_t>(state.range(0)), params);
  for (auto _ : state) {
    auto result = testing::reference_dbscan(normalized, params.dbscan);
    benchmark::DoNotOptimize(result.cluster_count);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(normalized.size()));
}
BENCHMARK(BM_DbscanKdTree)
    ->Arg(32)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_DbscanGrid(benchmark::State& state) {
  cluster::ClusteringParams params = sim::default_clustering();
  geom::PointSet normalized =
      wrf_points(static_cast<std::uint32_t>(state.range(0)), params);
  for (auto _ : state) {
    auto result = cluster::dbscan(normalized, params.dbscan);
    benchmark::DoNotOptimize(result.cluster_count);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(normalized.size()));
}
BENCHMARK(BM_DbscanGrid)
    ->Arg(32)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_BuildFrame(benchmark::State& state) {
  auto trace = wrf_trace(static_cast<std::uint32_t>(state.range(0)));
  cluster::ClusteringParams params = sim::default_clustering();
  for (auto _ : state) {
    cluster::Frame frame = cluster::build_frame(trace, params);
    benchmark::DoNotOptimize(frame.object_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace->burst_count()));
}
BENCHMARK(BM_BuildFrame)->Arg(32)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_SimulateWrf(benchmark::State& state) {
  sim::AppModel app = sim::make_wrf();
  sim::Scenario s;
  s.num_tasks = static_cast<std::uint32_t>(state.range(0));
  s.platform = sim::marenostrum();
  for (auto _ : state) {
    trace::Trace trace = app.simulate(s);
    benchmark::DoNotOptimize(trace.burst_count());
  }
}
BENCHMARK(BM_SimulateWrf)->Arg(32)->Arg(128)->Unit(benchmark::kMillisecond);

using DbscanEngine = cluster::DbscanResult (*)(const geom::PointSet&,
                                               const cluster::DbscanParams&);

/// One projection + DBSCAN pass over every frame of every study with the
/// given engine; returns the wall time in milliseconds. The labels of both
/// engines are compared as a safety net — a mismatch poisons the
/// comparison.
double cluster_all_studies(DbscanEngine engine,
                           std::vector<cluster::DbscanResult>* results) {
  const cluster::ClusteringParams params = sim::default_clustering();
  const auto start = std::chrono::steady_clock::now();
  for (const sim::Study& study : sim::all_studies()) {
    for (const auto& trace : study.traces) {
      cluster::Projection proj =
          cluster::project(*trace, params.projection);
      cluster::Transform transform =
          cluster::Transform::fit(proj.points, params.log_scale);
      geom::PointSet normalized = transform.apply(proj.points);
      results->push_back(engine(normalized, params.dbscan));
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

/// Engine comparison over the full study corpus, recorded as the
/// BENCH_clustering.json trajectory point (spans, the speedup gauges and
/// the label-identity verdict).
void run_engine_comparison() {
  bench::enable_telemetry();
  bench::print_title("perf_clustering",
                     "DBSCAN: reference kd-tree BFS vs production grid");
  bench::print_paper(
      "not in the paper — engineering comparison of production dbscan() "
      "with the reference BFS over the ten case studies (identical labels "
      "required)");

  std::vector<cluster::DbscanResult> kd, grid;
  double kd_ms, grid_ms;
  {
    PT_SPAN("dbscan_kdtree_total");
    kd_ms = cluster_all_studies(testing::reference_dbscan, &kd);
  }
  {
    PT_SPAN("dbscan_grid_total");
    grid_ms = cluster_all_studies(cluster::dbscan, &grid);
  }

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < kd.size(); ++i)
    if (kd[i].labels != grid[i].labels) ++mismatches;

  std::printf("frames clustered : %zu\n", kd.size());
  std::printf("reference kd-tree: %10.1f ms\n", kd_ms);
  std::printf("production grid  : %10.1f ms\n", grid_ms);
  std::printf("speedup          : %10.1fx\n", kd_ms / grid_ms);
  std::printf("label mismatches : %zu (must be 0)\n\n", mismatches);

  PT_GAUGE("dbscan_kdtree_ms", kd_ms);
  PT_GAUGE("dbscan_grid_ms", grid_ms);
  PT_GAUGE("dbscan_grid_speedup", kd_ms / grid_ms);
  PT_COUNTER("dbscan_label_mismatches", static_cast<double>(mismatches));
  PT_GAUGE("verdict_dbscan_identity", mismatches == 0 ? 1.0 : 0.0);
  // Both passes run serially on one thread; the host's count is recorded
  // next to it so the timings can be compared across machines.
  PT_GAUGE("threads", 1.0);
  PT_GAUGE("hardware_threads",
           static_cast<double>(std::thread::hardware_concurrency()));
  bench::write_telemetry("BENCH_clustering.json", "perf_clustering");
}

}  // namespace

int main(int argc, char** argv) {
  run_engine_comparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
