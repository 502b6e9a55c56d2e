// hd_frame: one 1920x1072 camera through tile::TileEngine (default 2x2
// exact plan, up to 4 tile lanes, scales {1, 2}), closed loop with one frame
// in flight. The paper's headline claim — an HDTV frame within the 10 ms
// budget — is what latency_ms_p50 here is measured against. Bypasses the
// runtime, guard, net and fleet layers.
#include <algorithm>
#include <memory>

#include "perfbench/common.hpp"
#include "perfbench/replay.hpp"
#include "src/tile/engine.hpp"

namespace perfbench {

using namespace pdet;

namespace {

constexpr double kFramesPerSecond = 6.0;  // a little under today's tiled HD rate
constexpr int kPoolFrames = 50;           // distinct frames, cycled
constexpr int kWarmFrames = 2;
constexpr int kCheckFrames = 2;   // frames compared against the untiled engine
constexpr int kReplayFrames = 2;  // frames replayed stage by stage
constexpr int kReplayRounds = 3;

dataset::MultiStreamOptions source_options() {
  dataset::MultiStreamOptions o;
  o.render_scale = 2.0;  // 960x536 world rendered at 1920x1072
  o.min_pedestrians = 1;
  o.max_pedestrians = 8;
  // 121-262 px tall at 1920x1072: inside the reach of scales 1 and 2.
  o.min_distance_m = 13.0;
  o.max_distance_m = 28.0;
  return o;
}

struct Setup {
  Trained trained;
  ScenePool pool;
  std::unique_ptr<tile::TileEngine> engine;
};

struct Phase {
  std::vector<double> latency_ms;
  std::vector<std::vector<detect::Detection>> detections;
  long long delivered = 0;
  long long tiles_detected = 0;
  long long tiles_reused = 0;
  long long windows = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

Phase timed_phase(Setup& s, const detect::MultiscaleOptions& ms, int frames,
                  Tracer& tracer) {
  Phase p;
  p.latency_ms.reserve(static_cast<std::size_t>(frames));
  p.detections.resize(static_cast<std::size_t>(frames));
  const auto& hog = s.trained.detector.config().hog;
  const auto& model = s.trained.detector.model();
  const double cpu0 = process_cpu_seconds();
  const auto wall0 = Clock::now();
  for (int k = 0; k < frames; ++k) {
    const auto& scene = s.pool.at(0, k);
    const auto t0 = Clock::now();
    const tile::TiledResult* r = nullptr;
    {
      ScopedSpan span(tracer, "tile.process");
      r = &s.engine->process(scene.image, hog, model, ms);
    }
    p.latency_ms.push_back(ms_between(t0, Clock::now()));
    p.detections[static_cast<std::size_t>(k)] = r->detections;
    ++p.delivered;
    p.tiles_detected += r->tiles_detected;
    p.tiles_reused += r->tiles_reused;
    p.windows += r->windows_evaluated;
  }
  p.wall_s = seconds_since(wall0);
  p.cpu_s = process_cpu_seconds() - cpu0;
  return p;
}

}  // namespace

Report run_hd_frame(const Args& args) {
  Report report;
  Fingerprint fp(args.perturb);
  Checks checks(args.perturb);
  const int lanes = budget(4);
  const int frames = timed_frames(args, kFramesPerSecond);
  const dataset::MultiStreamSource source(args.seed, source_options());
  detect::MultiscaleOptions ms;  // feature pyramid, scales {1, 2}

  std::vector<double> setup_s, train_s, render_s;
  Setup s;
  RssProbe rss;
  for (int round = 0; round < kSetupRounds; ++round) {
    s = Setup();
    const auto t0 = Clock::now();
    s.trained = train_detector();
    s.pool = render_pool(source, 1, kPoolFrames, host_cores());
    rss.before_system();
    tile::TileEngineOptions topts;
    topts.threads = lanes;
    s.engine = std::make_unique<tile::TileEngine>(topts);
    for (int i = 0; i < kWarmFrames; ++i) {
      (void)s.engine->process(s.pool.at(0, i).image,
                              s.trained.detector.config().hog,
                              s.trained.detector.model(), ms);
    }
    setup_s.push_back(seconds_since(t0));
    train_s.push_back(s.trained.seconds);
    render_s.push_back(s.pool.seconds);
  }
  const auto& hog = s.trained.detector.config().hog;
  const auto& model = s.trained.detector.model();
  const tile::TilePlan& plan = s.engine->plan();
  const auto warm_stats = s.engine->stats();

  Tracer untraced(false);
  rss.before_timed();
  Phase p = timed_phase(s, ms, frames, untraced);
  report.set_peak_rss(rss);
  Phase traced_phase;
  Tracer tracer(args.trace);
  if (args.trace) traced_phase = timed_phase(s, ms, frames, tracer);

  // Work fingerprint: every count follows from the frame count and the
  // plan geometry, so ROI selection or any timing-driven skip shows here.
  long long windows_per_frame = 0;
  for (const auto& t : plan.tiles()) {
    windows_per_frame += windows_for_shape(t.w, t.h, hog, ms);
  }
  for (const Phase* ph : {&p, args.trace ? &traced_phase : nullptr}) {
    if (ph == nullptr) continue;
    const std::string pre = ph == &p ? "" : "traced.";
    fp.expect(pre + "frames_delivered", frames, ph->delivered);
    fp.expect(pre + "tiles_detected",
              static_cast<long long>(frames) * plan.tile_count(),
              ph->tiles_detected);
    fp.expect(pre + "tiles_reused", 0, ph->tiles_reused);
    fp.expect(pre + "windows", frames * windows_per_frame, ph->windows);
  }
  fp.expect("engine_frames",
            warm_stats.frames + frames * (args.trace ? 2LL : 1LL),
            s.engine->stats().frames);

  // Output checks: the exact plan reproduces the untiled engine.
  checks.require("tile.plan_exact", plan.exact());
  detect::DetectionEngine untiled(detect::EngineOptions{.threads = budget(2)});
  bool tiled_equals_untiled = true;
  for (int k = 0; k < std::min(kCheckFrames, frames); ++k) {
    const auto& ref = untiled.process(s.pool.at(0, k).image, hog, model, ms);
    tiled_equals_untiled = tiled_equals_untiled &&
        same_detections(ref.detections, p.detections[static_cast<std::size_t>(k)]);
  }
  checks.require("tile.boxes_equal_untiled", tiled_equals_untiled);
  bool repeat_frames_identical = true;  // pool frame k and k + pool agree
  for (int k = kPoolFrames; k < frames; ++k) {
    repeat_frames_identical = repeat_frames_identical &&
        same_detections(p.detections[static_cast<std::size_t>(k)],
                        p.detections[static_cast<std::size_t>(k - kPoolFrames)]);
  }
  checks.require("tile.repeat_frames_identical", repeat_frames_identical);

  std::vector<std::vector<eval::GroundTruth>> truth;
  for (int k = 0; k < frames; ++k) truth.push_back(truth_of(s.pool.at(0, k)));
  const double lamr_value = lamr(p.detections, truth);

  const LatencySummary lat = summarize_latency(p.latency_ms);
  report.attempted = frames;
  report.failed = frames - p.delivered;
  report.set_end_to_end(median_of(setup_s), lat,
                        static_cast<double>(p.delivered) / p.wall_s,
                        p.cpu_s * 1e3 / static_cast<double>(std::max(1LL, p.delivered)),
                        lamr_value);
  report.note("busy_threads", std::to_string(lanes));
  report.note("tiles", std::to_string(plan.tile_count()));

  if (args.trace) {
    report.set("dataset.render_s", median_of(render_s));
    report.set("svm.train_s", median_of(train_s));
    report.set("tile.process_ms", median_of(tracer.durations_ms("tile.process")));
    const LatencySummary traced_lat = summarize_latency(traced_phase.latency_ms);
    report.set("trace.overhead_ratio", traced_lat.p50 / lat.p50);

    long long cropped = 0;
    for (const auto& t : plan.tiles()) cropped += static_cast<long long>(t.w) * t.h;
    report.set("tile.halo_ratio",
               static_cast<double>(cropped) /
                   (static_cast<double>(plan.frame_width()) * plan.frame_height()));

    // Front-end stages, replayed on one lane over each tile crop: the tiled
    // path's work split by stage, and how unevenly it falls on the tiles.
    Replayer replayer(hog, model, ms, score::kDefaultBatchCapacity);
    StageTimes sum;
    bool match = true;
    std::vector<double> imbalance;
    imgproc::ImageF crop;
    for (int k = 0; k < kReplayFrames; ++k) {
      std::vector<double> tile_ms;
      for (const auto& t : plan.tiles()) {
        s.pool.at(0, k).image.crop_into(t.x, t.y, t.w, t.h, crop);
        const StageTimes st = replayer.replay(crop, kReplayRounds, match);
        tile_ms.push_back(st.engine_ms);
        sum += st;
      }
      imbalance.push_back(*std::max_element(tile_ms.begin(), tile_ms.end()) /
                          mean_of(tile_ms));
    }
    set_front_end_metrics(report, checks, sum, kReplayFrames);
    checks.require("replay.detections_equal_engine", match);
    report.set("tile.lane_imbalance", mean_of(imbalance));

  }

  report.note("fingerprint", fp.to_json());
  report.note("checks", checks.to_json());
  report.correct = fp.ok() && checks.ok();
  if (!report.correct) report.failed = report.attempted;
  return report;
}

}  // namespace perfbench
