#include "tracking/session.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "obs/telemetry.hpp"
#include "store/serialize.hpp"
#include "tracking/evaluator_displacement.hpp"

namespace perftrack::tracking {

namespace {

/// Order- and length-sensitive fingerprint of a frame's task sequences,
/// used to bucket the session's star-align memo.
std::uint64_t sequences_fingerprint(
    const std::vector<std::vector<align::Symbol>>& sequences) {
  std::uint64_t h = store::fnv1a64(std::string_view{});
  for (const auto& seq : sequences) {
    const std::uint64_t len = seq.size();
    h = store::fnv1a64(
        std::string_view(reinterpret_cast<const char*>(&len), sizeof(len)),
        h);
    h = store::fnv1a64(
        std::string_view(reinterpret_cast<const char*>(seq.data()),
                         seq.size() * sizeof(align::Symbol)),
        h);
  }
  return h;
}

/// Union-find over (frame, object) nodes across the whole sequence.
class SequenceComponents {
public:
  explicit SequenceComponents(const std::vector<cluster::Frame>& frames) {
    offsets_.reserve(frames.size());
    std::size_t total = 0;
    for (const auto& f : frames) {
      offsets_.push_back(total);
      total += f.object_count();
    }
    parent_.resize(total);
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  std::size_t node(std::size_t frame, ObjectId object) const {
    return offsets_[frame] + static_cast<std::size_t>(object);
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void unite(std::size_t x, std::size_t y) { parent_[find(x)] = find(y); }

private:
  std::vector<std::size_t> offsets_;
  std::vector<std::size_t> parent_;
};

/// Chain pair relations into whole-sequence regions: the last stage of a
/// retrack. `pairs[p]` tracks `frames[p] -> frames[p+1]` under `scale`.
TrackingResult chain_tracking(std::vector<cluster::Frame> frames,
                              ScaleNormalization scale,
                              std::vector<PairTracking> pairs) {
  PT_REQUIRE(frames.size() >= 2, "tracking needs at least two frames");
  PT_REQUIRE(pairs.size() + 1 == frames.size(),
             "need exactly one pair tracking per adjacent frame pair");

  TrackingResult result;
  result.frames = std::move(frames);
  result.scale = std::move(scale);
  result.pairs = std::move(pairs);
  const std::size_t frame_count = result.frames.size();

  // Chain relations into whole-sequence regions.
  PT_SPAN("chain_regions");
  SequenceComponents components(result.frames);
  for (std::size_t p = 0; p + 1 < frame_count; ++p) {
    for (const Relation& rel : result.pairs[p].relations) {
      std::size_t anchor = components.node(p, *rel.left.begin());
      for (ObjectId a : rel.left)
        components.unite(anchor, components.node(p, a));
      for (ObjectId b : rel.right)
        components.unite(anchor, components.node(p + 1, b));
    }
  }

  std::map<std::size_t, TrackedRegion> by_root;
  for (std::size_t f = 0; f < frame_count; ++f) {
    for (std::size_t o = 0; o < result.frames[f].object_count(); ++o) {
      auto id = static_cast<ObjectId>(o);
      std::size_t root = components.find(components.node(f, id));
      TrackedRegion& region = by_root[root];
      if (region.members.empty()) region.members.resize(frame_count);
      region.members[f].insert(id);
      region.total_duration += result.frames[f].object(id).total_duration;
    }
  }

  result.regions.reserve(by_root.size());
  for (auto& [root, region] : by_root) {
    region.complete = region.frames_present() == frame_count;
    result.regions.push_back(std::move(region));
  }
  std::sort(result.regions.begin(), result.regions.end(),
            [](const TrackedRegion& x, const TrackedRegion& y) {
              if (x.complete != y.complete) return x.complete;
              return x.total_duration > y.total_duration;
            });
  for (std::size_t r = 0; r < result.regions.size(); ++r)
    result.regions[r].id = static_cast<int>(r);

  result.complete_count = 0;
  for (const TrackedRegion& region : result.regions)
    if (region.complete) ++result.complete_count;

  std::size_t min_objects = result.frames[0].object_count();
  for (const auto& f : result.frames)
    min_objects = std::min(min_objects, f.object_count());
  result.coverage = min_objects == 0
                        ? 0.0
                        : static_cast<double>(result.complete_count) /
                              static_cast<double>(min_objects);

  // Frame-object -> region renaming (for recoloured output, Fig. 6).
  result.renaming.resize(frame_count);
  for (std::size_t f = 0; f < frame_count; ++f)
    result.renaming[f].assign(result.frames[f].object_count(), -1);
  for (const TrackedRegion& region : result.regions)
    for (std::size_t f = 0; f < frame_count; ++f)
      for (ObjectId o : region.members[f])
        result.renaming[f][static_cast<std::size_t>(o)] = region.id;

  if (obs::enabled()) {
    PT_COUNTER("regions_total", static_cast<double>(result.regions.size()));
    PT_COUNTER("regions_complete",
               static_cast<double>(result.complete_count));
    PT_GAUGE("coverage", result.coverage);
  }
  return result;
}

}  // namespace

SessionConfig::SessionConfig() {
  // The paper's default metric space: Instructions x IPC, instruction axis
  // log-scaled (Fig. 1).
  clustering.projection.metrics = {trace::Metric::Instructions,
                                   trace::Metric::Ipc};
  clustering.log_scale = {true, false};
}

std::vector<std::string> SessionConfig::validate() const {
  std::vector<std::string> problems;
  auto in_unit = [](double v) { return std::isfinite(v) && v >= 0.0 && v <= 1.0; };

  const std::size_t dims = clustering.projection.metrics.size();
  if (dims == 0)
    problems.push_back("clustering.projection.metrics must name at least one axis");
  if (!(std::isfinite(clustering.dbscan.eps) && clustering.dbscan.eps > 0.0))
    problems.push_back("clustering.dbscan.eps must be a positive number");
  if (clustering.dbscan.min_pts == 0)
    problems.push_back("clustering.dbscan.min_pts must be at least 1");
  if (!(std::isfinite(clustering.projection.min_duration) &&
        clustering.projection.min_duration >= 0.0))
    problems.push_back("clustering.projection.min_duration must be >= 0");
  if (!in_unit(clustering.projection.time_coverage))
    problems.push_back("clustering.projection.time_coverage must be in [0, 1]");
  if (!clustering.log_scale.empty() && clustering.log_scale.size() != dims)
    problems.push_back("clustering.log_scale must be empty or match the axis count");
  if (!(std::isfinite(clustering.min_cluster_time_fraction) &&
        clustering.min_cluster_time_fraction >= 0.0 &&
        clustering.min_cluster_time_fraction < 1.0))
    problems.push_back("clustering.min_cluster_time_fraction must be in [0, 1)");
  if (!in_unit(tracking.outlier_threshold))
    problems.push_back("tracking.outlier_threshold must be in [0, 1]");
  if (!in_unit(tracking.spmd_threshold))
    problems.push_back("tracking.spmd_threshold must be in [0, 1]");
  if (!in_unit(tracking.sequence_threshold))
    problems.push_back("tracking.sequence_threshold must be in [0, 1]");
  if (!tracking.log_scale.empty() && tracking.log_scale.size() != dims)
    problems.push_back("tracking.log_scale must be empty or match the axis count");
  if (tracking.threads > ThreadPool::kMaxThreads)
    problems.push_back("tracking.threads must be at most " +
                       std::to_string(ThreadPool::kMaxThreads) +
                       " (0 = hardware concurrency)");
  if (!in_unit(resilience.max_gap_fraction))
    problems.push_back("resilience.max_gap_fraction must be in [0, 1]");
  return problems;
}

void SessionConfig::validate_or_throw() const {
  std::vector<std::string> problems = validate();
  if (problems.empty()) return;
  std::string what = "invalid session configuration (" +
                     std::to_string(problems.size()) + " problem" +
                     (problems.size() == 1 ? "" : "s") + "):";
  for (const std::string& p : problems) what += "\n  - " + p;
  throw Error(what);
}

TrackingSession::TrackingSession(SessionConfig config)
    : config_(std::move(config)) {
  config_.validate_or_throw();
}

std::size_t TrackingSession::append_experiment(
    std::shared_ptr<const trace::Trace> trace) {
  PT_REQUIRE(trace != nullptr, "experiment trace must not be null");
  Slot slot;
  slot.label = trace->label();
  slot.trace = std::move(trace);
  slots_.push_back(std::move(slot));
  return slots_.size() - 1;
}

std::size_t TrackingSession::append_frame(cluster::Frame frame) {
  Slot slot;
  slot.label = frame.label();
  slot.trace = frame.source_ptr();
  slot.attempted = true;
  slot.frame = std::move(frame);
  slots_.push_back(std::move(slot));
  return slots_.size() - 1;
}

std::size_t TrackingSession::append_gap(std::string label,
                                        std::string reason) {
  Slot slot;
  slot.label = std::move(label);
  slot.reason = std::move(reason);
  slots_.push_back(std::move(slot));
  return slots_.size() - 1;
}

std::size_t TrackingSession::gap_count() const {
  std::size_t n = 0;
  for (const Slot& slot : slots_)
    if (slot.gap()) ++n;
  return n;
}

void TrackingSession::cluster_new_slots() {
  PT_SPAN("cluster_experiments");

  // Serial pass in slot order: strict-mode gap errors and failpoint
  // evaluation keep their position-dependent semantics ("@i" poisons the
  // i-th clustered experiment) under any thread count. Already-attempted
  // slots are memoised and consume no failpoint evaluations.
  std::vector<std::size_t> to_build;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (slot.attempted) {
      if (slot.frame.has_value()) ++stats_.frames_memoized;
      continue;
    }
    if (slot.gap()) {
      if (!config_.resilience.lenient)
        throw Error("experiment '" + slot.label + "' is a gap (" +
                    slot.reason +
                    "); enable lenient resilience to track across it");
      continue;
    }
    try {
      PT_FAILPOINT("cluster_experiment");
    } catch (const Error& error) {
      if (!config_.resilience.lenient) throw;
      slot.attempted = true;
      slot.reason = error.what();
      continue;
    }
    to_build.push_back(i);
  }

  if (!to_build.empty()) {
    // One clustering task per fresh experiment; outcomes land in their
    // slot, so the frame sequence is identical for any thread count.
    struct Outcome {
      std::optional<cluster::Frame> frame;
      std::string error;
      std::exception_ptr rethrow;
    };
    std::vector<Outcome> outcomes(to_build.size());
    const std::vector<const char*> here = obs::current_span_path();
    ThreadPool& pool =
        ThreadPool::shared(ThreadPool::resolve(config_.tracking.threads));
    pool.parallel_for(0, to_build.size(), [&](std::size_t t) {
      obs::SpanContext ctx(here);
      const Slot& slot = slots_[to_build[t]];
      try {
        outcomes[t].frame =
            cluster::build_frame(slot.trace, config_.clustering);
      } catch (const Error& error) {
        outcomes[t].error = error.what();
        outcomes[t].rethrow = std::current_exception();
      }
    });

    for (std::size_t t = 0; t < to_build.size(); ++t) {
      Slot& slot = slots_[to_build[t]];
      Outcome& outcome = outcomes[t];
      slot.attempted = true;
      if (outcome.frame.has_value()) {
        slot.frame = std::move(outcome.frame);
        ++stats_.frames_clustered;
        continue;
      }
      slot.reason = std::move(outcome.error);
      slot.rethrow = outcome.rethrow;
      if (!config_.resilience.lenient) {
        if (slot.rethrow) std::rethrow_exception(slot.rethrow);
        throw Error(slot.reason);
      }
    }
  }
}

TrackingResult TrackingSession::retrack() & { return retrack_slots(false); }

TrackingResult TrackingSession::retrack() && { return retrack_slots(true); }

TrackingResult TrackingSession::retrack_slots(bool move_frames) {
  PT_SPAN("session_retrack");
  PT_REQUIRE(slots_.size() >= 2, "tracking needs at least two experiments");
  PT_COUNTER("experiments", static_cast<double>(slots_.size()));

  cluster_new_slots();

  // Fold the memoised outcomes in slot order: surviving frames, gaps and
  // error precedence all match a fresh session's single retrack.
  std::vector<std::size_t> live;
  std::vector<ExperimentGap> gaps;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (slot.frame.has_value()) {
      live.push_back(i);
      continue;
    }
    if (!slot.gap()) {
      // A memoised clustering failure; strict mode was rethrown above.
      PT_LOG(Warn) << "experiment '" << slot.label
                   << "' failed to cluster, tracking across the gap: "
                   << slot.reason;
    }
    gaps.push_back({i, slot.label, slot.reason});
  }

  if (!gaps.empty()) {
    double gap_fraction = static_cast<double>(gaps.size()) /
                          static_cast<double>(slots_.size());
    if (gap_fraction > config_.resilience.max_gap_fraction)
      throw Error("gap budget exhausted: " + std::to_string(gaps.size()) +
                  " of " + std::to_string(slots_.size()) +
                  " experiments failed (limit " +
                  std::to_string(static_cast<int>(
                      config_.resilience.max_gap_fraction * 100.0)) +
                  "%)");
    if (live.size() < 2)
      throw Error("tracking needs at least two surviving experiments (" +
                  std::to_string(gaps.size()) + " of " +
                  std::to_string(slots_.size()) + " are gaps)");
    PT_COUNTER("experiment_gaps", static_cast<double>(gaps.size()));
  }
  PT_REQUIRE(live.size() >= 2, "tracking needs at least two experiments");

  TrackingResult result;
  {
    PT_SPAN("track_frames");
    const TrackingParams& params = config_.tracking;
    ThreadPool& pool = ThreadPool::shared(ThreadPool::resolve(params.threads));
    PT_GAUGE("threads", static_cast<double>(pool.thread_count()));

    // From here on the live frames are read through `frames` only, so a
    // session that is discarded after this call can give its frames up.
    std::vector<cluster::Frame> frames;
    frames.reserve(live.size());
    for (std::size_t i : live) {
      if (move_frames)
        frames.push_back(std::move(*slots_[i].frame));
      else
        frames.push_back(*slots_[i].frame);
    }

    ScaleNormalization scale;
    {
      PT_SPAN("scale_fit");
      scale = ScaleNormalization::fit(frames,
                                      tracking_log_scale(params, frames[0]));
    }

    // The memoised pair relations were computed under pair_scale_; a scale
    // moved by the appended frames invalidates every one of them (the
    // price of bit-identity with a fresh session's retrack). Frames and
    // alignments stay valid — only the cross-experiment normalisation
    // changed.
    if (!pair_scale_.has_value() || !(*pair_scale_ == scale)) {
      if (!pair_memo_.empty()) {
        ++stats_.scale_invalidations;
        PT_LOG(Debug) << "session: scale moved, re-tracking all "
                      << pair_memo_.size() << " memoised pairs";
      }
      pair_memo_.clear();
      pair_scale_ = scale;
    }

    const std::size_t pair_count = live.size() - 1;
    std::vector<std::size_t> missing;
    for (std::size_t p = 0; p < pair_count; ++p)
      if (!pair_memo_.count({live[p], live[p + 1]})) missing.push_back(p);

    // Per-frame artefacts: alignments are memoised per slot (they depend
    // only on the frame and the fixed alignment scores); displacement
    // clouds depend on the scale, so they are rebuilt, but only for the
    // frames the missing pairs actually touch.
    std::vector<char> needs_cloud(live.size(), 0);
    for (std::size_t p : missing) needs_cloud[p] = needs_cloud[p + 1] = 1;
    std::vector<std::unique_ptr<FrameCloud>> clouds(live.size());
    {
      PT_SPAN("frame_alignments");

      // Serial memo probe in slot order: slots whose task sequences were
      // already star-aligned (any earlier retrack, any slot) share the
      // profile; only genuinely new sequence sets are built, in parallel
      // below, then published to the memo serially in slot order.
      struct Build {
        std::size_t f;
        std::uint64_t fp;
      };
      std::vector<Build> to_align;
      std::vector<std::pair<std::size_t, std::size_t>> duplicate;  // f, build
      std::uint64_t memoized_now = 0;
      for (std::size_t f = 0; f < live.size(); ++f) {
        Slot& slot = slots_[live[f]];
        if (slot.alignment != nullptr) continue;
        const auto& sequences = frames[f].task_sequences();
        const std::uint64_t fp = sequences_fingerprint(sequences);
        auto bucket = alignment_memo_.find(fp);
        if (bucket != alignment_memo_.end()) {
          bool hit = false;
          for (const AlignmentMemoEntry& entry : bucket->second)
            if (entry.sequences == sequences) {
              slot.alignment = entry.alignment;
              ++stats_.alignments_memoized;
              ++memoized_now;
              hit = true;
              break;
            }
          if (hit) continue;
        }
        bool pending = false;
        for (std::size_t u = 0; u < to_align.size() && !pending; ++u)
          if (to_align[u].fp == fp &&
              frames[to_align[u].f].task_sequences() == sequences) {
            duplicate.emplace_back(f, u);
            pending = true;
          }
        if (!pending) to_align.push_back({f, fp});
      }

      std::vector<std::shared_ptr<const FrameAlignment>> built(
          to_align.size());
      const std::vector<const char*> here = obs::current_span_path();
      pool.parallel_for(0, to_align.size() + live.size(), [&](std::size_t t) {
        obs::SpanContext ctx(here);
        if (t < to_align.size()) {
          built[t] = std::make_shared<FrameAlignment>(
              frames[to_align[t].f], params.alignment_scores, &pool);
        } else {
          const std::size_t f = t - to_align.size();
          if (params.use_displacement && needs_cloud[f])
            clouds[f] = std::make_unique<FrameCloud>(frames[f], scale);
        }
      });

      for (std::size_t u = 0; u < to_align.size(); ++u) {
        Slot& slot = slots_[live[to_align[u].f]];
        slot.alignment = built[u];
        alignment_memo_[to_align[u].fp].push_back(
            {frames[to_align[u].f].task_sequences(), built[u]});
        ++stats_.alignments_computed;
      }
      for (const auto& [f, u] : duplicate) {
        slots_[live[f]].alignment = built[u];
        ++stats_.alignments_memoized;
        ++memoized_now;
      }
      PT_COUNTER("session_alignments_computed",
                 static_cast<double>(to_align.size()));
      PT_COUNTER("session_alignments_memoized",
                 static_cast<double>(memoized_now));
    }

    // Track only the missing pairs; results land in their slot, so the
    // sequence is identical for any thread count.
    std::vector<PairTracking> fresh(missing.size());
    {
      const std::vector<const char*> here = obs::current_span_path();
      pool.parallel_for(0, missing.size(), [&](std::size_t m) {
        obs::SpanContext ctx(here);
        const std::size_t p = missing[m];
        fresh[m] = track_pair(frames[p], *slots_[live[p]].alignment,
                              frames[p + 1], *slots_[live[p + 1]].alignment,
                              scale, params, clouds[p].get(),
                              clouds[p + 1].get(), &pool);
        PT_LOG(Debug) << "pair " << p << ": " << fresh[m].relations.size()
                      << " relations";
      });
    }
    for (std::size_t m = 0; m < missing.size(); ++m)
      pair_memo_[{live[missing[m]], live[missing[m] + 1]}] =
          std::move(fresh[m]);
    stats_.pairs_tracked += missing.size();
    stats_.pairs_memoized += pair_count - missing.size();
    PT_COUNTER("session_pairs_tracked", static_cast<double>(missing.size()));
    PT_COUNTER("session_pairs_memoized",
               static_cast<double>(pair_count - missing.size()));

    std::vector<PairTracking> pairs;
    pairs.reserve(pair_count);
    for (std::size_t p = 0; p < pair_count; ++p)
      pairs.push_back(pair_memo_.at({live[p], live[p + 1]}));

    result = chain_tracking(std::move(frames), std::move(scale),
                            std::move(pairs));
  }
  result.gaps = std::move(gaps);
  return result;
}

}  // namespace perftrack::tracking
