#include "tracking/evaluator_displacement.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/thread_pool.hpp"
#include "obs/telemetry.hpp"

namespace perftrack::tracking {

FrameCloud::FrameCloud(const cluster::Frame& frame,
                       const ScaleNormalization& scale) {
  PT_SPAN("frame_cloud");
  points_ = scale.apply_clustered(frame, cluster_of_);
  if (points_.empty()) return;  // all-noise frame: never queried

  // Per-cluster row lists and bounding boxes for the classification
  // sweep's cluster-level short-circuit.
  const std::size_t dims = points_.dims();
  const std::size_t clusters = frame.object_count();
  cluster_rows_.resize(clusters);
  cluster_lo_.assign(clusters * dims, std::numeric_limits<double>::infinity());
  cluster_hi_.assign(clusters * dims,
                     -std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const auto c = static_cast<std::size_t>(cluster_of_[i]);
    cluster_rows_[c].push_back(static_cast<std::uint32_t>(i));
    const auto p = points_[i];
    for (std::size_t d = 0; d < dims; ++d) {
      cluster_lo_[c * dims + d] = std::min(cluster_lo_[c * dims + d], p[d]);
      cluster_hi_[c * dims + d] = std::max(cluster_hi_[c * dims + d], p[d]);
    }
  }
}

const geom::NnTree& FrameCloud::index(ThreadPool* pool) const {
  std::call_once(index_once_, [this, pool] {
    PT_SPAN("nn_index_build");
    index_ = std::make_unique<geom::NnTree>(points_, pool);
    PT_COUNTER("displacement_trees_built", 1.0);
  });
  return *index_;
}

namespace {

/// Points per sweep chunk, below which splitting is pure overhead.
constexpr std::size_t kMinChunkPoints = 1024;

/// Relative slack covering the rounding of squared box distances, so a
/// cluster-level verdict proven with this margin also holds for the
/// individually rounded per-point distances (which round at ~1e-16).
constexpr double kBoxSlack = 1e-9;

/// Classify every point of `from` into the nearest cluster of `to`.
///
/// Two phases. First, a cluster-level short-circuit: if one target
/// cluster's farthest box-to-box distance is strictly below every other
/// target cluster's closest, every row of the source cluster provably
/// classifies to it — no per-point queries, and no cross-cluster distance
/// ties to break, so the counts are byte-identical to the exact sweep. Rows
/// of unresolved clusters fall through to the exact nearest-neighbour
/// sweep, which builds the target's index if no sweep has yet.
///
/// The sweep accumulates per-chunk integer count matrices that are folded
/// in chunk order; integer sums are exact, so the fold — and the final
/// count/row-total division, which reproduces the serial arithmetic — is
/// bit-identical for every chunk decomposition and thread count.
CorrelationMatrix classify(const FrameCloud& from, std::size_t from_count,
                           const FrameCloud& to, std::size_t to_count,
                           ThreadPool* pool) {
  CorrelationMatrix m(from_count, to_count);
  if (from.empty() || to.empty()) return m;

  const std::size_t dims = from.points().dims();
  std::vector<std::uint64_t> total(from_count * to_count, 0);
  std::vector<std::uint32_t> residual;  // rows still needing exact NN

  const std::vector<double>& flo = from.cluster_lo();
  const std::vector<double>& fhi = from.cluster_hi();
  const std::vector<double>& tlo = to.cluster_lo();
  const std::vector<double>& thi = to.cluster_hi();
  for (std::size_t i = 0; i < from.cluster_count(); ++i) {
    const std::vector<std::uint32_t>& rows = from.cluster_rows(i);
    if (rows.empty()) continue;
    // Farthest and closest squared box-to-box distance per target.
    double best_max = std::numeric_limits<double>::infinity();
    std::size_t best_j = 0;
    for (std::size_t j = 0; j < to.cluster_count(); ++j) {
      if (to.cluster_rows(j).empty()) continue;
      double max_sq = 0.0;
      for (std::size_t d = 0; d < dims; ++d) {
        const double span = std::max(fhi[i * dims + d] - tlo[j * dims + d],
                                     thi[j * dims + d] - flo[i * dims + d]);
        max_sq += span * span;
      }
      if (max_sq < best_max) {
        best_max = max_sq;
        best_j = j;
      }
    }
    double others_min = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < to.cluster_count(); ++j) {
      if (j == best_j || to.cluster_rows(j).empty()) continue;
      double min_sq = 0.0;
      for (std::size_t d = 0; d < dims; ++d) {
        const double gap =
            std::max({0.0, tlo[j * dims + d] - fhi[i * dims + d],
                      flo[i * dims + d] - thi[j * dims + d]});
        min_sq += gap * gap;
      }
      others_min = std::min(others_min, min_sq);
    }
    if (best_max * (1.0 + kBoxSlack) < others_min)
      total[i * to_count + best_j] += rows.size();
    else
      residual.insert(residual.end(), rows.begin(), rows.end());
  }

  const std::size_t n = residual.size();
  const geom::NnTree* index = n > 0 ? &to.index(pool) : nullptr;
  const std::size_t workers = pool ? pool->thread_count() : 1;
  std::size_t chunks = 1;
  if (workers > 1 && n > 0)
    chunks = std::clamp<std::size_t>(n / kMinChunkPoints, 1, workers * 4);

  std::vector<std::vector<std::uint32_t>> counts(
      chunks, std::vector<std::uint32_t>(from_count * to_count, 0));
  auto sweep = [&](std::size_t c) {
    const std::size_t begin = c * n / chunks;
    const std::size_t end = (c + 1) * n / chunks;
    std::uint32_t* cnt = counts[c].data();
    // Residual rows are cluster-grouped, hence spatially coherent, so
    // each answer warm-starts the next query's search radius. The hint
    // never changes a result, so the per-chunk reset keeps any
    // decomposition exact.
    std::size_t hint = geom::NnTree::kNoHint;
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t row = residual[i];
      const std::size_t nearest = index->nearest(from.points()[row], hint);
      hint = nearest;
      const auto from_id = static_cast<std::size_t>(from.cluster_of(row));
      const auto to_id = static_cast<std::size_t>(to.cluster_of(nearest));
      ++cnt[from_id * to_count + to_id];
    }
  };
  if (n > 0) {
    // A leaf span of its own, so the sweep is told apart from the index
    // build (nn_index_build) that precedes it.
    PT_SPAN("displacement_sweep");
    if (chunks == 1)
      sweep(0);
    else
      pool->parallel_for(0, chunks, sweep);
  }

  for (const auto& chunk : counts)
    for (std::size_t k = 0; k < total.size(); ++k) total[k] += chunk[k];
  for (std::size_t i = 0; i < from_count; ++i) {
    std::uint64_t row_total = 0;
    for (std::size_t j = 0; j < to_count; ++j)
      row_total += total[i * to_count + j];
    if (row_total == 0) continue;
    for (std::size_t j = 0; j < to_count; ++j)
      m.set(i, j,
            static_cast<double>(total[i * to_count + j]) /
                static_cast<double>(row_total));
  }
  return m;
}

}  // namespace

DisplacementResult evaluate_displacement(const cluster::Frame& frame_a,
                                         const FrameCloud& cloud_a,
                                         const cluster::Frame& frame_b,
                                         const FrameCloud& cloud_b,
                                         double outlier_threshold,
                                         ThreadPool* pool) {
  PT_SPAN("evaluator_displacement");
  PT_FAILPOINT("evaluator_displacement");
  PT_REQUIRE(outlier_threshold >= 0.0 && outlier_threshold < 1.0,
             "outlier threshold must be in [0,1)");

  DisplacementResult out;
  // The two directions run as one loop; either order yields the same bits.
  // A body on another thread adopts this span path, so an index build it
  // runs is recorded inside evaluator_displacement.
  const std::vector<const char*> here = obs::current_span_path();
  auto direction = [&](std::size_t d) {
    obs::SpanContext ctx(here);
    if (d == 0)
      out.a_to_b = classify(cloud_a, frame_a.object_count(), cloud_b,
                            frame_b.object_count(), pool);
    else
      out.b_to_a = classify(cloud_b, frame_b.object_count(), cloud_a,
                            frame_a.object_count(), pool);
  };
  if (pool)
    pool->parallel_for(0, 2, direction);
  else
    for (std::size_t d = 0; d < 2; ++d) direction(d);
  out.a_to_b.threshold(outlier_threshold);
  out.b_to_a.threshold(outlier_threshold);
  if (obs::enabled()) {
    // A link is an object pair connected by either direction, matching the
    // combiner's reciprocal link-proposal rule.
    double links = 0.0;
    for (std::size_t i = 0; i < out.a_to_b.rows(); ++i)
      for (std::size_t j = 0; j < out.a_to_b.cols(); ++j)
        if (out.a_to_b.at(i, j) > 0.0 || out.b_to_a.at(j, i) > 0.0) ++links;
    PT_COUNTER("displacement_links", links);
    PT_COUNTER("displacement_points_classified",
               static_cast<double>(cloud_a.points().size() +
                                   cloud_b.points().size()));
  }
  return out;
}

DisplacementResult evaluate_displacement(const cluster::Frame& frame_a,
                                         const cluster::Frame& frame_b,
                                         const ScaleNormalization& scale,
                                         double outlier_threshold,
                                         ThreadPool* pool) {
  FrameCloud cloud_a(frame_a, scale);
  FrameCloud cloud_b(frame_b, scale);
  return evaluate_displacement(frame_a, cloud_a, frame_b, cloud_b,
                               outlier_threshold, pool);
}

}  // namespace perftrack::tracking
