// Stage-by-stage replay of the detection front end on one lane.
//
// The traced run feeds a workload's own frames (or, for the tiled workload,
// its tile crops) through the public stage functions the engine is built
// from — gradients, cell-grid vote, block normalization, feature
// down-scaling, the batched scan and NMS — with a span around each, and
// through DetectionEngine::process as a whole. The stage sum must reconcile
// with the engine time (kReconcileTolerance) and the staged detections must
// equal the engine's, so the per-stage split is known to describe the path
// the workloads actually run.
#pragma once

#include <vector>

#include "perfbench/common.hpp"
#include "src/detect/engine.hpp"
#include "src/hog/params.hpp"
#include "src/score/backend.hpp"
#include "src/svm/linear_svm.hpp"

namespace perfbench {

/// Per-input stage times (medians over the replay rounds), in ms.
struct StageTimes {
  double gradient_ms = 0.0;   ///< compute_gradients_into
  double vote_ms = 0.0;       ///< compute_cell_grid_into minus its gradients
  double normalize_ms = 0.0;  ///< normalize_cells_into, all levels
  double downscale_ms = 0.0;  ///< downscale_cell_grid_into, all levels
  double scan_ms = 0.0;       ///< scan_level_into, all levels (incl. scoring)
  double nms_ms = 0.0;        ///< nms_into
  double engine_ms = 0.0;     ///< DetectionEngine::process, one lane
  double score_ms = 0.0;      ///< ScoringBackend::score inside the scan
  long long windows = 0;      ///< windows scored
  long long score_batches = 0;
  long long score_capacity = 0;  ///< sum of batch capacities

  double stage_sum_ms() const {
    return gradient_ms + vote_ms + normalize_ms + downscale_ms + scan_ms +
           nms_ms;
  }
  StageTimes& operator+=(const StageTimes& o);
};

class Replayer {
 public:
  Replayer(const pdet::hog::HogParams& params,
           const pdet::svm::LinearModel& model,
           const pdet::detect::MultiscaleOptions& options,
           std::size_t score_batch);

  /// Replay one input `rounds` times (after one untimed warm pass). Sets
  /// `match` false when the staged detections differ from the engine's.
  StageTimes replay(const pdet::imgproc::ImageF& image, int rounds,
                    bool& match);

 private:
  StageTimes staged_pass(const pdet::imgproc::ImageF& image);

  const pdet::hog::HogParams& params_;
  const pdet::svm::LinearModel& model_;
  const pdet::detect::MultiscaleOptions& options_;
  std::size_t score_batch_;
  std::unique_ptr<pdet::score::ScoringBackend> backend_;
  pdet::detect::DetectionEngine engine_;
  // Warm staged-pass buffers.
  pdet::imgproc::GradientField grad_;
  pdet::imgproc::GradientField cell_grad_;
  pdet::hog::CellGrid base_;
  pdet::hog::CellGrid level_;
  pdet::hog::BlockGrid blocks_;
  std::vector<float> block_scratch_;
  pdet::score::ScoreBatch batch_;
  std::vector<pdet::detect::Detection> hits_;
  std::vector<pdet::detect::Detection> raw_;
  std::vector<pdet::detect::Detection> nms_scratch_;
  std::vector<pdet::detect::Detection> kept_;
};

/// Front-end per-layer metrics from the stage times summed over `frames`
/// replayed frames: imgproc.*, hog.*, detect.*, score.ns_per_window and the
/// replay's score.batch_fill. Checks the reconciliation and the detections.
void set_front_end_metrics(Report& report, Checks& checks,
                           const StageTimes& sum, int frames);

/// Replays FrameGuard::inspect over each stream's frames in order:
/// guard.inspect_us, guard.unusable (must be 0 on clean frames).
void set_guard_metrics(
    Report& report, Checks& checks,
    const std::vector<std::vector<const pdet::imgproc::ImageF*>>& streams);

/// Replays the wire codec over every frame with its delivered detections
/// (`detections[k]` belongs to `frames[k]`): net.encode_us (SubmitFrame),
/// net.decode_us (Result), net.bytes_per_frame (both messages).
void set_wire_metrics(
    Report& report, Checks& checks,
    const std::vector<const pdet::imgproc::ImageF*>& frames,
    const std::vector<std::vector<pdet::detect::Detection>>& detections);

/// Median of each field over `runs` (counts taken from the first).
StageTimes median_stage_times(const std::vector<StageTimes>& runs);

bool same_detections(const std::vector<pdet::detect::Detection>& a,
                     const std::vector<pdet::detect::Detection>& b);

}  // namespace perfbench
