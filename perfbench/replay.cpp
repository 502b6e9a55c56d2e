#include "perfbench/replay.hpp"

#include <cmath>
#include <stdexcept>

#include "perfbench/common.hpp"
#include "src/detect/nms.hpp"
#include "src/guard/gate.hpp"
#include "src/net/wire.hpp"
#include "src/detect/scanner.hpp"
#include "src/hog/block_grid.hpp"
#include "src/hog/cell_grid.hpp"
#include "src/hog/feature_scale.hpp"

namespace perfbench {

using namespace pdet;

namespace {

/// Forwards to the real backend and times each score() call: the span
/// around ScoringBackend::score, taken from outside the library.
class TimedBackend final : public score::ScoringBackend {
 public:
  explicit TimedBackend(score::ScoringBackend& inner) : inner_(inner) {}
  score::BackendKind kind() const override { return inner_.kind(); }
  void score(const svm::LinearModel& model, score::ScoreBatch& batch) override {
    const auto t0 = Clock::now();
    inner_.score(model, batch);
    ms += ms_between(t0, Clock::now());
    windows += static_cast<long long>(batch.size());
    capacity += static_cast<long long>(batch.capacity());
    ++batches;
  }
  score::BackendStats stats() const override { return inner_.stats(); }

  double ms = 0.0;
  long long windows = 0;
  long long capacity = 0;
  long long batches = 0;

 private:
  score::ScoringBackend& inner_;
};

}  // namespace

StageTimes& StageTimes::operator+=(const StageTimes& o) {
  gradient_ms += o.gradient_ms;
  vote_ms += o.vote_ms;
  normalize_ms += o.normalize_ms;
  downscale_ms += o.downscale_ms;
  scan_ms += o.scan_ms;
  nms_ms += o.nms_ms;
  engine_ms += o.engine_ms;
  score_ms += o.score_ms;
  windows += o.windows;
  score_batches += o.score_batches;
  score_capacity += o.score_capacity;
  return *this;
}

Replayer::Replayer(const hog::HogParams& params, const svm::LinearModel& model,
                   const detect::MultiscaleOptions& options,
                   std::size_t score_batch)
    : params_(params), model_(model), options_(options),
      score_batch_(score_batch),
      backend_(score::make_backend(score::BackendKind::kAuto)),
      engine_(detect::EngineOptions{.threads = 1,
                                    .score_batch = score_batch}) {
  if (options_.strategy != detect::PyramidStrategy::kFeature) {
    throw std::invalid_argument("replay mirrors the feature pyramid only");
  }
}

StageTimes Replayer::staged_pass(const imgproc::ImageF& image) {
  StageTimes t;
  TimedBackend timed(*backend_);

  auto t0 = Clock::now();
  imgproc::compute_gradients_into(image, params_.gradient_op, grad_);
  auto t1 = Clock::now();
  t.gradient_ms = ms_between(t0, t1);

  hog::compute_cell_grid_into(image, params_, cell_grad_, base_);
  t0 = Clock::now();
  // The cell-grid stage recomputes its own gradients; its self time is the
  // vote alone.
  t.vote_ms = std::max(0.0, ms_between(t1, t0) - t.gradient_ms);

  raw_.clear();
  for (const double s : options_.scales) {
    const hog::CellGrid* cells = &base_;
    if (s != 1.0) {
      t0 = Clock::now();
      hog::downscale_cell_grid_into(base_, s, options_.feature_interp, level_);
      t.downscale_ms += ms_between(t0, Clock::now());
      cells = &level_;
    }
    if (cells->cells_x() < params_.cells_per_window_x() ||
        cells->cells_y() < params_.cells_per_window_y()) {
      continue;
    }
    t0 = Clock::now();
    hog::normalize_cells_into(*cells, params_, block_scratch_, blocks_);
    t1 = Clock::now();
    batch_.configure(static_cast<std::size_t>(params_.descriptor_size()),
                     score_batch_);
    detect::scan_level_into(blocks_, params_, model_, timed, options_.scan,
                            batch_, hits_);
    const auto t2 = Clock::now();
    t.normalize_ms += ms_between(t0, t1);
    t.scan_ms += ms_between(t1, t2);
    for (detect::Detection d : hits_) {
      d.x = static_cast<int>(std::lround(d.x * s));
      d.y = static_cast<int>(std::lround(d.y * s));
      d.width = static_cast<int>(std::lround(d.width * s));
      d.height = static_cast<int>(std::lround(d.height * s));
      d.scale = s;
      raw_.push_back(d);
    }
  }
  t0 = Clock::now();
  detect::nms_into(raw_, options_.nms_iou, nms_scratch_, kept_);
  t.nms_ms = ms_between(t0, Clock::now());

  t.score_ms = timed.ms;
  t.windows = timed.windows;
  t.score_batches = timed.batches;
  t.score_capacity = timed.capacity;
  return t;
}

StageTimes Replayer::replay(const imgproc::ImageF& image, int rounds,
                            bool& match) {
  (void)engine_.process(image, params_, model_, options_);  // warm buffers
  (void)staged_pass(image);
  std::vector<StageTimes> runs;
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = Clock::now();
    const auto& result = engine_.process(image, params_, model_, options_);
    const double engine_ms = ms_between(t0, Clock::now());
    StageTimes t = staged_pass(image);
    t.engine_ms = engine_ms;
    if (!same_detections(result.detections, kept_)) match = false;
    runs.push_back(t);
  }
  return median_stage_times(runs);
}

void set_front_end_metrics(Report& report, Checks& checks,
                           const StageTimes& sum, int frames) {
  const double n = std::max(1, frames);
  report.set("imgproc.gradient_ms", sum.gradient_ms / n);
  report.set("hog.cell_grid_ms", sum.vote_ms / n);
  report.set("hog.normalize_ms", sum.normalize_ms / n);
  report.set("hog.downscale_ms", sum.downscale_ms / n);
  report.set("detect.scan_ms", sum.scan_ms / n);
  report.set("detect.nms_us", sum.nms_ms * 1e3 / n);
  report.set("detect.engine_ms", sum.engine_ms / n);
  const double gap =
      sum.engine_ms > 0.0 ? (sum.engine_ms - sum.stage_sum_ms()) / sum.engine_ms
                          : 1.0;
  report.set("detect.stage_gap", gap);
  report.set("detect.windows_per_frame", static_cast<double>(sum.windows) / n);
  report.set("score.ns_per_window",
             sum.windows > 0 ? sum.score_ms * 1e6 / static_cast<double>(sum.windows)
                             : 0.0);
  report.set("score.batch_fill",
             sum.score_capacity > 0 ? static_cast<double>(sum.windows) /
                                          static_cast<double>(sum.score_capacity)
                                    : 0.0);
  checks.require("replay.stage_sum_reconciles",
                 std::fabs(gap) <= kReconcileTolerance);
  report.note("reconcile_tolerance", json_number(kReconcileTolerance));
}

void set_guard_metrics(
    Report& report, Checks& checks,
    const std::vector<std::vector<const imgproc::ImageF*>>& streams) {
  std::vector<double> inspect_us;
  long long unusable = 0;
  for (const auto& frames : streams) {
    guard::FrameGuard gate;
    for (const imgproc::ImageF* frame : frames) {
      const auto t0 = Clock::now();
      const guard::GuardVerdict& v = gate.inspect(*frame);
      inspect_us.push_back(ms_between(t0, Clock::now()) * 1e3);
      if (v.quality == guard::FrameQuality::kUnusable) ++unusable;
    }
  }
  report.set("guard.inspect_us", median_of(inspect_us));
  report.set("guard.unusable", static_cast<double>(unusable));
  checks.require("guard.clean_frames_usable", unusable == 0);
}

void set_wire_metrics(
    Report& report, Checks& checks,
    const std::vector<const imgproc::ImageF*>& frames,
    const std::vector<std::vector<detect::Detection>>& detections) {
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  double bytes = 0.0;
  bool round_trip = true;
  net::wire::SubmitFrame submit;
  net::wire::Result result;
  net::wire::Message decoded;
  std::vector<std::uint8_t> buf;
  for (std::size_t k = 0; k < frames.size(); ++k) {
    submit.tag = k;
    submit.image = *frames[k];
    buf.clear();
    auto t0 = Clock::now();
    net::wire::encode_submit_frame(submit, buf);
    encode_us.push_back(ms_between(t0, Clock::now()) * 1e3);
    bytes += static_cast<double>(buf.size());

    result.tag = k;
    result.sequence = k;
    result.detections = detections[k];
    buf.clear();
    net::wire::encode_result(result, buf);
    bytes += static_cast<double>(buf.size());
    std::size_t consumed = 0;
    t0 = Clock::now();
    const auto status = net::wire::decode_message(buf, decoded, consumed);
    decode_us.push_back(ms_between(t0, Clock::now()) * 1e3);
    round_trip = round_trip && status == net::wire::DecodeStatus::kOk &&
                 consumed == buf.size() &&
                 same_detections(decoded.result.detections, detections[k]);
  }
  report.set("net.encode_us", median_of(encode_us));
  report.set("net.decode_us", median_of(decode_us));
  report.set("net.bytes_per_frame",
             frames.empty() ? 0.0 : bytes / static_cast<double>(frames.size()));
  checks.require("wire.result_round_trip", round_trip);
}

StageTimes median_stage_times(const std::vector<StageTimes>& runs) {
  StageTimes out;
  if (runs.empty()) return out;
  const auto med = [&runs](double StageTimes::*field) {
    std::vector<double> v;
    for (const auto& r : runs) v.push_back(r.*field);
    return median_of(std::move(v));
  };
  out.gradient_ms = med(&StageTimes::gradient_ms);
  out.vote_ms = med(&StageTimes::vote_ms);
  out.normalize_ms = med(&StageTimes::normalize_ms);
  out.downscale_ms = med(&StageTimes::downscale_ms);
  out.scan_ms = med(&StageTimes::scan_ms);
  out.nms_ms = med(&StageTimes::nms_ms);
  out.engine_ms = med(&StageTimes::engine_ms);
  out.score_ms = med(&StageTimes::score_ms);
  out.windows = runs.front().windows;
  out.score_batches = runs.front().score_batches;
  out.score_capacity = runs.front().score_capacity;
  return out;
}

bool same_detections(const std::vector<detect::Detection>& a,
                     const std::vector<detect::Detection>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].x != b[i].x || a[i].y != b[i].y || a[i].width != b[i].width ||
        a[i].height != b[i].height || a[i].score != b[i].score) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
