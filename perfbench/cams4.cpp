// cams4: four 960x536 cameras through runtime::DetectionServer with the
// input guard on, 3 workers, engine_threads 1, cross-stream batching at its
// default and the degradation ladder off. Open loop: one generator thread
// submits at a fixed aggregate rate (about two thirds of today's capacity),
// and each frame's latency runs from the moment it was due to its delivery
// callback. Parallelism is across frames on workers, not within a frame, so
// a front-end change that speeds one big frame but contends across workers
// shows here. Bypasses tile, net and fleet.
#include <algorithm>
#include <limits>
#include <memory>
#include <thread>

#include "perfbench/common.hpp"
#include "perfbench/replay.hpp"
#include "src/runtime/server.hpp"

namespace perfbench {

using namespace pdet;

namespace {

constexpr int kStreams = 4;
constexpr double kRateFps = 16.0;  // aggregate; a constant of the workload
constexpr int kPoolPerStream = 16;
constexpr int kWarmPerStream = 3;
constexpr int kReplayRounds = 3;

dataset::MultiStreamOptions source_options() {
  dataset::MultiStreamOptions o;  // 960x536
  o.min_pedestrians = 1;
  o.max_pedestrians = 4;
  // 121-262 px tall: inside the reach of scales 1 and 2.
  o.min_distance_m = 6.5;
  o.max_distance_m = 14.0;
  return o;
}

/// What the delivery callbacks record. Written by worker threads under each
/// stream's delivery lock (one slot per frame, so streams never share a
/// slot); read by the generator thread after drain().
struct Deliveries {
  struct Stream {
    std::uint64_t next_sequence = 0;
    bool in_order = true;
    long long delivered = 0;
    long long not_ok = 0;
  };
  std::vector<Stream> streams{kStreams};
  // Current timed phase: sequence base[c] of stream c is its first timed
  // frame (frames submitted to the stream before the phase began).
  std::vector<std::uint64_t> base = std::vector<std::uint64_t>(kStreams, 0);
  int frames = 0;
  std::vector<Clock::time_point> done;
  std::vector<std::vector<detect::Detection>> detections;
  std::vector<int> hits;  ///< deliveries per timed frame (must be 1)

  void begin_phase(const std::vector<std::uint64_t>& first_sequence, int n) {
    base = first_sequence;
    frames = n;
    done.assign(static_cast<std::size_t>(n), Clock::time_point{});
    detections.assign(static_cast<std::size_t>(n), {});
    hits.assign(static_cast<std::size_t>(n), 0);
  }

  void on_result(const runtime::StreamResult& r) {
    Stream& s = streams[static_cast<std::size_t>(r.stream)];
    if (r.sequence != s.next_sequence) s.in_order = false;
    s.next_sequence = r.sequence + 1;
    ++s.delivered;
    if (r.status != runtime::FrameStatus::kOk) ++s.not_ok;
    const std::uint64_t first = base[static_cast<std::size_t>(r.stream)];
    if (r.sequence < first) return;  // an earlier phase or warm-up
    const long long k =
        static_cast<long long>(r.sequence - first) * kStreams + r.stream;
    if (k >= frames) return;
    const auto i = static_cast<std::size_t>(k);
    done[i] = Clock::now();
    detections[i] = r.detections;
    ++hits[i];
  }
};

struct Setup {
  Trained trained;
  ScenePool pool;
  std::unique_ptr<Deliveries> log;  // outlives the server (declared first)
  std::unique_ptr<runtime::DetectionServer> server;
  std::vector<std::uint64_t> submitted = std::vector<std::uint64_t>(kStreams, 0);
};

runtime::ServerOptions server_options(const core::PedestrianDetector& det,
                                      int workers) {
  runtime::ServerOptions o;
  o.workers = workers;
  o.engine_threads = 1;
  o.queue_capacity = 8;
  o.backpressure = runtime::BackpressurePolicy::kBlock;
  o.scheduler.deadline_ms = 0.0;  // no deadline skips
  o.scheduler.max_level = 0;      // degradation ladder off
  o.guard.enabled = true;
  o.hog = det.config().hog;
  o.multiscale = det.config().multiscale;
  return o;
}

struct Phase {
  std::vector<double> latency_ms;
  long long accepted = 0;
  long long delivered = 0;
  long long duplicates = 0;
  double max_lag_ms = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  runtime::RuntimeStats before;
  runtime::RuntimeStats after;
};

Phase timed_phase(Setup& s, int frames, Tracer& tracer) {
  Phase p;
  p.before = s.server->stats();
  s.log->begin_phase(s.submitted, frames);
  std::vector<Clock::time_point> due(static_cast<std::size_t>(frames));
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kRateFps));
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  for (int k = 0; k < frames; ++k) {
    const auto i = static_cast<std::size_t>(k);
    due[i] = start + period * k;
    std::this_thread::sleep_until(due[i]);
    p.max_lag_ms = std::max(p.max_lag_ms, ms_between(due[i], Clock::now()));
    const int stream = k % kStreams;
    runtime::SubmitStatus st;
    {
      ScopedSpan span(tracer, "runtime.submit");
      st = s.server->submit(stream, s.pool.at(stream, k / kStreams).image);
    }
    ++s.submitted[static_cast<std::size_t>(stream)];
    if (st == runtime::SubmitStatus::kAccepted) ++p.accepted;
  }
  s.server->drain();
  p.cpu_s = process_cpu_seconds() - cpu0;
  p.after = s.server->stats();
  const Deliveries& log = *s.log;
  Clock::time_point last = start;
  for (int k = 0; k < frames; ++k) {
    const auto i = static_cast<std::size_t>(k);
    if (log.hits[i] >= 1) {
      ++p.delivered;
      p.latency_ms.push_back(ms_between(due[i], log.done[i]));
      last = std::max(last, log.done[i]);
    } else {
      p.latency_ms.push_back(std::numeric_limits<double>::infinity());
    }
    if (log.hits[i] > 1) ++p.duplicates;
  }
  p.wall_s = std::chrono::duration<double>(last - start).count();
  return p;
}

}  // namespace

Report run_cams4(const Args& args) {
  Report report;
  Fingerprint fp(args.perturb);
  Checks checks(args.perturb);
  const int workers = budget(3);
  const int frames = timed_frames(args, kRateFps);
  const dataset::MultiStreamSource source(args.seed, source_options());

  std::vector<double> setup_s, train_s, render_s;
  Setup s;
  RssProbe rss;
  for (int round = 0; round < kSetupRounds; ++round) {
    s.server.reset();
    s = Setup();
    const auto t0 = Clock::now();
    s.trained = train_detector();
    s.pool = render_pool(source, kStreams, kPoolPerStream, host_cores());
    rss.before_system();
    s.log = std::make_unique<Deliveries>();
    s.server = std::make_unique<runtime::DetectionServer>(
        s.trained.detector.model(), server_options(s.trained.detector, workers));
    for (int c = 0; c < kStreams; ++c) {
      Deliveries* log = s.log.get();
      s.server->add_stream("cam" + std::to_string(c),
                           [log](const runtime::StreamResult& r) {
                             log->on_result(r);
                           });
    }
    s.server->start();
    // Warm every worker engine, the hub, the guard and the pooled slots.
    for (int i = 0; i < kWarmPerStream; ++i) {
      for (int c = 0; c < kStreams; ++c) {
        (void)s.server->submit(c, s.pool.at(c, kPoolPerStream - 1 - i).image);
        ++s.submitted[static_cast<std::size_t>(c)];
      }
    }
    s.server->drain();
    setup_s.push_back(seconds_since(t0));
    train_s.push_back(s.trained.seconds);
    render_s.push_back(s.pool.seconds);
  }
  const auto& hog = s.trained.detector.config().hog;
  const auto& model = s.trained.detector.model();
  const detect::MultiscaleOptions ms = s.trained.detector.config().multiscale;

  std::vector<std::vector<eval::GroundTruth>> truth;
  for (int k = 0; k < frames; ++k) {
    truth.push_back(truth_of(s.pool.at(k % kStreams, k / kStreams)));
  }
  Tracer untraced(false);
  rss.before_timed();
  Phase p = timed_phase(s, frames, untraced);
  report.set_peak_rss(rss);
  const double lamr_value = lamr(s.log->detections, truth);
  Phase tp;
  Tracer tracer(args.trace);
  if (args.trace) {
    tp = timed_phase(s, frames, tracer);
  }

  // Work fingerprint (expected values follow from the frame count and the
  // frame geometry alone).
  const long long windows_per_frame = windows_for_shape(
      s.pool.scenes.front().image.width(), s.pool.scenes.front().image.height(),
      hog, ms);
  for (const Phase* ph : {&p, args.trace ? &tp : nullptr}) {
    if (ph == nullptr) continue;
    const std::string pre = ph == &p ? "" : "traced.";
    const auto& a = ph->after;
    const auto& b = ph->before;
    fp.expect(pre + "frames_accepted", frames, ph->accepted);
    fp.expect(pre + "frames_delivered", frames, ph->delivered);
    fp.expect(pre + "frames_ok", frames, a.ok - b.ok);
    fp.expect(pre + "frames_degraded", 0, a.degraded - b.degraded);
    fp.expect(pre + "dropped", 0,
              (a.dropped_queue - b.dropped_queue) +
                  (a.dropped_deadline - b.dropped_deadline) + (a.errors - b.errors));
    fp.expect(pre + "guard_rejections", 0,
              (a.guard_unusable - b.guard_unusable) + (a.guard_soft - b.guard_soft));
    fp.expect(pre + "score_windows", frames * windows_per_frame,
              a.score_windows - b.score_windows);
    checks.require(pre + "runtime.exactly_once", ph->duplicates == 0);
  }
  bool in_order = true;
  long long not_ok = 0;
  for (const auto& st : s.log->streams) {
    in_order = in_order && st.in_order;
    not_ok += st.not_ok;
  }
  checks.require("runtime.in_order_per_stream", in_order);
  checks.require("runtime.all_frames_ok", not_ok == 0);

  const LatencySummary lat = summarize_latency(p.latency_ms);
  report.attempted = frames;
  report.failed = frames - p.delivered;
  report.note("busy_threads", std::to_string(workers));
  report.note("rate_fps", json_number(kRateFps));
  report.note("generator_max_lag_ms", json_number(p.max_lag_ms));

  report.set_end_to_end(
      median_of(setup_s), lat, static_cast<double>(p.delivered) / p.wall_s,
      p.cpu_s * 1e3 / static_cast<double>(std::max(1LL, p.delivered)),
      lamr_value);
  if (args.trace) {
    report.set("dataset.render_s", median_of(render_s));
    report.set("svm.train_s", median_of(train_s));
    const LatencySummary traced_lat = summarize_latency(tp.latency_ms);
    report.set("trace.overhead_ratio", traced_lat.p50 / lat.p50);
    const auto submit_ms = tracer.durations_ms("runtime.submit");
    report.set("runtime.submit_us", median_of(submit_ms) * 1e3);
    const runtime::RuntimeStats& rs = tp.after;
    report.set("runtime.queue_wait_ms_p50", rs.queue_wait_ms.p50);
    report.set("runtime.service_ms_p50", rs.service_ms.p50);
    report.set("runtime.dropped",
               static_cast<double>(rs.dropped_queue + rs.dropped_deadline + rs.errors));
    report.set("runtime.generator_lag_ms", std::max(p.max_lag_ms, tp.max_lag_ms));

    Replayer replayer(hog, model, ms, score::kDefaultBatchCapacity);
    StageTimes sum;
    bool match = true;
    for (int c = 0; c < kStreams; ++c) {
      sum += replayer.replay(s.pool.at(c, 0).image, kReplayRounds, match);
    }
    set_front_end_metrics(report, checks, sum, kStreams);
    checks.require("replay.detections_equal_engine", match);
    report.set("score.batch_fill", rs.score_fill);  // the runtime's own fill

    std::vector<std::vector<const imgproc::ImageF*>> streams(kStreams);
    for (int c = 0; c < kStreams; ++c) {
      for (int i = 0; i < kPoolPerStream; ++i) {
        streams[static_cast<std::size_t>(c)].push_back(&s.pool.at(c, i).image);
      }
    }
    set_guard_metrics(report, checks, streams);
    report.set("guard.unusable", static_cast<double>(rs.guard_unusable));
  }
  s.server->stop();

  report.note("fingerprint", fp.to_json());
  report.note("checks", checks.to_json());
  report.correct = fp.ok() && checks.ok();
  if (!report.correct) report.failed = report.attempted;
  return report;
}

}  // namespace perfbench
