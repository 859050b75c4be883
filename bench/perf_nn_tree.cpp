// Microbenchmark — NnTree build and its three queries vs brute force.
//
// geom::NnTree answers the displacement evaluator's nearest-neighbour
// cross-classification, DBSCAN's eps-neighbourhoods when the grid engine
// does not apply, and autotune's k-distance curve; this quantifies the win
// over linear scans at the point counts the studies produce.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <utility>

#include "common/rng.hpp"
#include "geom/nn_tree.hpp"

using namespace perftrack;

namespace {

geom::PointSet random_points(std::size_t n, std::size_t dims,
                             std::uint64_t seed) {
  Rng rng(seed);
  geom::PointSet points(dims);
  points.reserve(n);
  std::vector<double> coords(dims);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& c : coords) c = rng.uniform(0.0, 1.0);
    points.add(coords);
  }
  return points;
}

constexpr double kRadius = 0.025;
constexpr std::size_t kNeighbours = 6;

void BM_NnTreeBuild(benchmark::State& state) {
  auto points = random_points(static_cast<std::size_t>(state.range(0)), 2, 7);
  for (auto _ : state) {
    geom::NnTree tree(points);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NnTreeBuild)->Arg(1000)->Arg(10000)->Arg(60000);

void BM_NnTreeNearest(benchmark::State& state) {
  auto points = random_points(static_cast<std::size_t>(state.range(0)), 2, 7);
  auto queries = random_points(1000, 2, 13);
  geom::NnTree tree(points);
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.nearest(queries[q % queries.size()]));
    ++q;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NnTreeNearest)->Arg(1000)->Arg(10000)->Arg(60000);

void BM_BruteForceNearest(benchmark::State& state) {
  auto points = random_points(static_cast<std::size_t>(state.range(0)), 2, 7);
  auto queries = random_points(1000, 2, 13);
  std::size_t q = 0;
  for (auto _ : state) {
    auto query = queries[q % queries.size()];
    std::size_t best = 0;
    double best_sq = 1e300;
    for (std::size_t i = 0; i < points.size(); ++i) {
      double d2 = geom::squared_distance(query, points[i]);
      if (d2 < best_sq) {
        best_sq = d2;
        best = i;
      }
    }
    benchmark::DoNotOptimize(best);
    ++q;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BruteForceNearest)->Arg(1000)->Arg(10000)->Arg(60000);

void BM_NnTreeRadius(benchmark::State& state) {
  auto points = random_points(static_cast<std::size_t>(state.range(0)), 2, 7);
  geom::NnTree tree(points);
  std::vector<std::size_t> out;
  std::size_t q = 0;
  for (auto _ : state) {
    tree.radius_query(points[q % points.size()], kRadius, out);
    benchmark::DoNotOptimize(out.size());
    ++q;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NnTreeRadius)->Arg(10000)->Arg(60000);

void BM_BruteForceRadius(benchmark::State& state) {
  auto points = random_points(static_cast<std::size_t>(state.range(0)), 2, 7);
  std::vector<std::size_t> out;
  std::size_t q = 0;
  for (auto _ : state) {
    auto query = points[q % points.size()];
    out.clear();
    for (std::size_t i = 0; i < points.size(); ++i)
      if (geom::squared_distance(query, points[i]) <= kRadius * kRadius)
        out.push_back(i);
    benchmark::DoNotOptimize(out.size());
    ++q;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BruteForceRadius)->Arg(10000)->Arg(60000);

void BM_NnTreeKNearest(benchmark::State& state) {
  auto points = random_points(static_cast<std::size_t>(state.range(0)), 2, 7);
  geom::NnTree tree(points);
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.k_nearest(points[q % points.size()], kNeighbours).back());
    ++q;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NnTreeKNearest)->Arg(10000)->Arg(60000);

void BM_BruteForceKNearest(benchmark::State& state) {
  auto points = random_points(static_cast<std::size_t>(state.range(0)), 2, 7);
  std::vector<std::pair<double, std::size_t>> all(points.size());
  std::size_t q = 0;
  for (auto _ : state) {
    auto query = points[q % points.size()];
    for (std::size_t i = 0; i < points.size(); ++i)
      all[i] = {geom::squared_distance(query, points[i]), i};
    std::partial_sort(all.begin(), all.begin() + kNeighbours, all.end());
    benchmark::DoNotOptimize(all[kNeighbours - 1].second);
    ++q;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BruteForceKNearest)->Arg(10000)->Arg(60000);

}  // namespace

BENCHMARK_MAIN();
