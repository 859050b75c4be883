#include "tracking/frame_alignment.hpp"

#include "common/failpoint.hpp"
#include "obs/telemetry.hpp"

namespace perftrack::tracking {

FrameAlignment::FrameAlignment(const cluster::Frame& frame,
                               const align::AlignmentScores& scores,
                               ThreadPool* pool) {
  PT_SPAN("frame_alignment");
  PT_FAILPOINT("frame_alignment");
  msa_ = align::star_align(frame.task_sequences(), scores, pool);
  consensus_ = msa_.consensus();
}

}  // namespace perftrack::tracking
