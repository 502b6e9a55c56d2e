// fleet_small: fleet::ShardRouter in front of two net::DetectionService
// shards (one worker each) over loopback. One generator thread drives two
// net::Client connections, one placed on each shard, closed loop with one
// frame in flight per client. (Four clients saturate the shards but keep
// more threads busy than a 4-core host has cores, and the tail then follows
// scheduler noise more than the system.) The generator never waits on one
// client while another's result is ready, so each client's latency is its
// own shard's round trip. Frames are 128x256 — just large
// enough to scan both scales — so per-frame fixed costs dominate: wire
// codec, poll loops, router forwarding and runtime hops. Bypasses tile.
#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "perfbench/common.hpp"
#include "perfbench/replay.hpp"
#include "src/fleet/ring.hpp"
#include "src/fleet/router.hpp"
#include "src/net/client.hpp"
#include "src/net/service.hpp"

namespace perfbench {

using namespace pdet;

namespace {

constexpr int kShards = 2;
constexpr int kClients = 2;
constexpr double kFramesPerSecond = 300.0;  // ~ today's closed-loop rate
constexpr int kPoolPerClient = 512;
constexpr int kWarmPerClient = 4;
constexpr int kProbeFrames = 60;  // rtt probes, one frame in flight
constexpr int kReplayRounds = 3;
constexpr double kResultTimeoutMs = 5000.0;
/// Longest the generator blocks on one client when no result is ready: the
/// most another client's ready result can wait to be stamped. net::Client
/// exposes no socket to wait on both; sleeping between zero-timeout sweeps
/// instead added about 1 ms of CPU per frame and raised the latency more.
constexpr double kIdleWaitMs = 1.0;

dataset::MultiStreamOptions source_options() {
  dataset::MultiStreamOptions o;
  o.scene.width = 128;
  o.scene.height = 256;
  o.scene.camera.focal_px = 150.0;
  o.min_pedestrians = 1;
  o.max_pedestrians = 1;
  // 106-134 px tall: the scale-1 window's reach at this focal length.
  o.min_distance_m = 1.8;
  o.max_distance_m = 2.8;
  return o;
}

int shard_of(const std::string& name) {
  const fleet::HashRing ring(kShards, fleet::RouterOptions{}.vnodes);
  return ring.lookup(fleet::HashRing::key_for(name));
}

/// The first `count` names "<prefix>N" the router's ring places on `shard`.
std::vector<std::string> names_on_shard(const std::string& prefix, int shard,
                                        int count) {
  std::vector<std::string> out;
  for (int i = 0; static_cast<int>(out.size()) < count; ++i) {
    std::string name = prefix + std::to_string(i);
    if (shard_of(name) == shard) out.push_back(std::move(name));
  }
  return out;
}

/// Frames client `c` carries when frame k goes to client k % kClients.
int client_share(int frames, int c) {
  return (frames - c + kClients - 1) / kClients;
}

struct Setup {
  Trained trained;
  ScenePool pool;
  std::vector<std::unique_ptr<net::DetectionService>> shards;
  std::unique_ptr<fleet::ShardRouter> router;
  std::vector<std::unique_ptr<net::Client>> clients;  // destroyed first
};

std::unique_ptr<net::Client> connect_client(std::uint16_t port,
                                            const std::string& name) {
  net::ClientOptions o;
  o.port = port;
  o.name = name;
  o.reconnect_attempts = 0;  // a lost link is a failure, not a retry
  auto c = std::make_unique<net::Client>(o);
  if (!c->connect()) throw std::runtime_error("connect failed: " + c->last_error());
  return c;
}

/// Shards, router and the load's client connections. Client c is placed on
/// shard c % kShards by its name, so the placement is balanced and fixed.
void start_fleet(Setup& s) {
  net::ServiceOptions so;
  so.max_clients = 8;
  so.runtime.workers = 1;
  so.runtime.engine_threads = 1;
  so.runtime.queue_capacity = 8;
  so.runtime.backpressure = runtime::BackpressurePolicy::kBlock;
  so.runtime.scheduler.max_level = 0;  // degradation off
  so.runtime.hog = s.trained.detector.config().hog;
  so.runtime.multiscale = s.trained.detector.config().multiscale;
  fleet::RouterOptions ro;
  ro.max_clients = 8;
  for (int i = 0; i < kShards; ++i) {
    s.shards.push_back(
        std::make_unique<net::DetectionService>(s.trained.detector.model(), so));
    std::string error;
    if (!s.shards.back()->start(&error)) throw std::runtime_error(error);
    ro.backends.push_back(fleet::BackendEndpoint{"127.0.0.1", s.shards.back()->port()});
  }
  s.router = std::make_unique<fleet::ShardRouter>(ro);
  std::string error;
  if (!s.router->start(&error)) throw std::runtime_error(error);
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (s.router->backends_up() < kShards && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (s.router->backends_up() != kShards) throw std::runtime_error("shards not up");
  std::vector<std::vector<std::string>> names;
  for (int i = 0; i < kShards; ++i) {
    names.push_back(names_on_shard("cam-", i, kClients / kShards));
  }
  for (int c = 0; c < kClients; ++c) {
    s.clients.push_back(connect_client(
        s.router->port(),
        names[static_cast<std::size_t>(c % kShards)][static_cast<std::size_t>(c / kShards)]));
  }
}

struct Phase {
  std::vector<double> latency_ms;
  std::vector<std::vector<detect::Detection>> detections;
  std::vector<std::uint8_t> trace_levels;  ///< per result, sizes its trace block
  long long submitted = 0;
  long long answered = 0;
  long long not_ok = 0;
  bool tags_in_order = true;
  long long client_bytes = 0;  ///< encoded SubmitFrame + Result bytes
  double wall_s = 0.0;
  double cpu_s = 0.0;
  fleet::RouterStats router_before, router_after;
  std::vector<net::ServiceStats> shard_before, shard_after;
};

/// Router counters once its io thread has caught up: a result reaches the
/// client before the router thread adds the send to bytes_out, so a snapshot
/// taken the moment the last result arrives can miss it.
fleet::RouterStats settled_router_stats(const fleet::ShardRouter& router) {
  fleet::RouterStats a = router.stats();
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    fleet::RouterStats b = router.stats();
    if (a.bytes_in == b.bytes_in && a.bytes_out == b.bytes_out &&
        a.results_delivered == b.results_delivered) {
      return b;
    }
    a = std::move(b);
  }
  return a;
}

std::vector<net::ServiceStats> shard_stats(const Setup& s) {
  std::vector<net::ServiceStats> out;
  for (const auto& sh : s.shards) out.push_back(sh->stats());
  return out;
}

/// Frame k goes to client k % kClients as that client's (k / kClients)-th
/// frame, one frame in flight per client. One thread drives every client:
/// each sweep reads every ready result without waiting and stamps it as it
/// is read, and only then resubmits for the clients it answered. A sweep that
/// finds nothing blocks for at most kIdleWaitMs on the client whose frame
/// has been out longest, the one expected back first, instead of spinning.
Phase timed_phase(Setup& s, int frames) {
  Phase p;
  p.latency_ms.assign(static_cast<std::size_t>(frames),
                      std::numeric_limits<double>::infinity());
  p.detections.resize(static_cast<std::size_t>(frames));
  p.trace_levels.resize(static_cast<std::size_t>(frames));
  p.router_before = settled_router_stats(*s.router);
  p.shard_before = shard_stats(s);
  std::vector<Clock::time_point> sent(static_cast<std::size_t>(frames));
  std::vector<int> next_submit(kClients, 0), next_answer(kClients, 0);
  std::vector<bool> in_flight(kClients, false);
  std::vector<std::uint64_t> next_tag(kClients);
  for (int c = 0; c < kClients; ++c) {
    next_tag[static_cast<std::size_t>(c)] = static_cast<std::uint64_t>(
        s.clients[static_cast<std::size_t>(c)]->submitted_on_connection());
  }
  const auto outstanding = [&](int c) {  // frame index client c awaits
    return static_cast<std::size_t>(next_answer[static_cast<std::size_t>(c)] *
                                        kClients + c);
  };
  const auto submit = [&](int c) {
    const auto cu = static_cast<std::size_t>(c);
    const int k = next_submit[cu]++ * kClients + c;
    sent[static_cast<std::size_t>(k)] = Clock::now();
    in_flight[cu] = s.clients[cu]->submit(s.pool.at(c, k / kClients).image);
    if (in_flight[cu]) {
      ++p.submitted;
    } else {
      ++next_answer[cu];  // never sent: stays unanswered (infinite latency)
    }
  };
  net::wire::Result r;
  const auto take = [&](int c) {
    const auto cu = static_cast<std::size_t>(c);
    const auto ku = outstanding(c);
    p.latency_ms[ku] = ms_between(sent[ku], Clock::now());
    ++next_answer[cu];
    in_flight[cu] = false;
    if (r.tag != next_tag[cu]++) p.tags_in_order = false;
    if (r.status != runtime::FrameStatus::kOk) ++p.not_ok;
    p.detections[ku] = r.detections;
    p.trace_levels[ku] = r.trace.level_count;
    ++p.answered;
  };
  const double cpu0 = process_cpu_seconds();
  const auto wall0 = Clock::now();
  for (;;) {
    for (int c = 0; c < kClients; ++c) {
      if (in_flight[static_cast<std::size_t>(c)] &&
          s.clients[static_cast<std::size_t>(c)]->next_result(r, 0.0)) {
        take(c);
      }
    }
    bool resubmitted = false;
    for (int c = 0; c < kClients; ++c) {
      const auto cu = static_cast<std::size_t>(c);
      if (!in_flight[cu] && next_submit[cu] < client_share(frames, c)) {
        submit(c);
        resubmitted = true;
      }
    }
    if (resubmitted) continue;
    int oldest = -1;
    for (int c = 0; c < kClients; ++c) {
      if (in_flight[static_cast<std::size_t>(c)] &&
          (oldest < 0 || sent[outstanding(c)] < sent[outstanding(oldest)])) {
        oldest = c;
      }
    }
    if (oldest < 0) break;  // every frame answered
    if (ms_between(sent[outstanding(oldest)], Clock::now()) > kResultTimeoutMs) {
      break;  // a lost result: it and the frames not yet sent stay missing
    }
    if (s.clients[static_cast<std::size_t>(oldest)]->next_result(r, kIdleWaitMs)) {
      take(oldest);
    }
  }
  p.wall_s = seconds_since(wall0);
  p.cpu_s = process_cpu_seconds() - cpu0;
  p.router_after = settled_router_stats(*s.router);
  p.shard_after = shard_stats(s);
  // Wire bytes the frames and their results occupy, encoded client-side.
  net::wire::SubmitFrame probe;
  std::vector<std::uint8_t> enc;
  for (int k = 0; k < frames; ++k) {
    probe.image = s.pool.at(k % kClients, k / kClients).image;
    enc.clear();
    net::wire::encode_submit_frame(probe, enc);
    r = net::wire::Result{};
    r.detections = p.detections[static_cast<std::size_t>(k)];
    r.trace.level_count = p.trace_levels[static_cast<std::size_t>(k)];
    net::wire::encode_result(r, enc);
    p.client_bytes += static_cast<long long>(enc.size());
  }
  return p;
}

/// Median round trip of one client with one frame in flight.
double probe_rtt_ms(net::Client& client, const ScenePool& pool, bool& ok) {
  std::vector<double> rtt;
  net::wire::Result r;
  for (int i = 0; i < kProbeFrames; ++i) {
    const auto t0 = Clock::now();
    if (!client.submit(pool.at(0, i).image) || !client.next_result(r, kResultTimeoutMs)) {
      ok = false;
      break;
    }
    rtt.push_back(ms_between(t0, Clock::now()));
  }
  return median_of(rtt);
}

}  // namespace

Report run_fleet_small(const Args& args) {
  Report report;
  Fingerprint fp(args.perturb);
  Checks checks(args.perturb);
  const int frames = timed_frames(args, kFramesPerSecond);
  const dataset::MultiStreamSource source(args.seed, source_options());

  std::vector<double> setup_s, train_s, render_s;
  Setup s;
  RssProbe rss;
  for (int round = 0; round < kSetupRounds; ++round) {
    s.clients.clear();  // tear the previous round down front to back
    s.router.reset();
    s.shards.clear();
    s = Setup();
    const auto t0 = Clock::now();
    s.trained = train_detector();
    s.pool = render_pool(source, kClients, kPoolPerClient, host_cores());
    rss.before_system();
    start_fleet(s);
    net::wire::Result r;
    for (int c = 0; c < kClients; ++c) {  // warm connections, shards, router
      auto& client = *s.clients[static_cast<std::size_t>(c)];
      for (int i = 0; i < kWarmPerClient; ++i) {
        if (!client.submit(s.pool.at(c, kPoolPerClient - 1 - i).image) ||
            !client.next_result(r, kResultTimeoutMs)) {
          throw std::runtime_error("warm-up frame lost");
        }
      }
    }
    setup_s.push_back(seconds_since(t0));
    train_s.push_back(s.trained.seconds);
    render_s.push_back(s.pool.seconds);
  }
  const auto& hog = s.trained.detector.config().hog;
  const auto& model = s.trained.detector.model();
  const detect::MultiscaleOptions ms = s.trained.detector.config().multiscale;
  const auto& first = s.pool.scenes.front().image;
  const long long windows_per_frame =
      windows_for_shape(first.width(), first.height(), hog, ms);

  // The traced phase records no spans here (the per-layer figures come from
  // the services' own stats, the probes and the replays); it still runs so
  // trace.overhead_ratio compares like with like across workloads.
  rss.before_timed();
  Phase p = timed_phase(s, frames);
  report.set_peak_rss(rss);
  Phase tp;
  if (args.trace) tp = timed_phase(s, frames);

  for (const Phase* ph : {&p, args.trace ? &tp : nullptr}) {
    if (ph == nullptr) continue;
    const std::string pre = ph == &p ? "" : "traced.";
    const auto& ra = ph->router_after;
    const auto& rb = ph->router_before;
    fp.expect(pre + "frames_submitted", frames, ph->submitted);
    fp.expect(pre + "frames_answered", frames, ph->answered);
    fp.expect(pre + "router_forwarded", frames, ra.frames_forwarded - rb.frames_forwarded);
    const auto shed = [](const fleet::RouterStats& st) {
      return st.frames_shed_no_backend + st.frames_shed_draining +
             st.frames_shed_backpressure + st.results_shed_backend +
             st.results_shed_client + st.duplicates_suppressed + st.frames_rejected;
    };
    fp.expect(pre + "router_shed", 0, shed(ra) - shed(rb));
    // Each shard carries exactly the frames of the clients placed on it.
    for (int i = 0; i < kShards; ++i) {
      const auto iu = static_cast<std::size_t>(i);
      long long expected = 0;
      for (int c = i; c < kClients; c += kShards) expected += client_share(frames, c);
      fp.expect(pre + "shard" + std::to_string(i) + "_frames", expected,
                ph->shard_after[iu].frames_received - ph->shard_before[iu].frames_received);
    }
    long long windows = 0, dropped = 0;
    for (int i = 0; i < kShards; ++i) {
      const auto& a = ph->shard_after[static_cast<std::size_t>(i)].runtime;
      const auto& b = ph->shard_before[static_cast<std::size_t>(i)].runtime;
      windows += a.score_windows - b.score_windows;
      dropped += (a.dropped_queue - b.dropped_queue) +
                 (a.dropped_deadline - b.dropped_deadline) + (a.errors - b.errors) +
                 (a.degraded - b.degraded);
    }
    fp.expect(pre + "score_windows", frames * windows_per_frame, windows);
    fp.expect(pre + "shard_dropped", 0, dropped);
    fp.expect(pre + "wire_bytes", 2 * ph->client_bytes,
              (ra.bytes_in - rb.bytes_in) + (ra.bytes_out - rb.bytes_out));
    checks.require(pre + "net.tags_answered_once_in_order",
                   ph->tags_in_order && ph->answered == frames);
    checks.require(pre + "net.all_frames_ok", ph->not_ok == 0);
  }
  bool clients_in_order = true;
  for (const auto& c : s.clients) {
    clients_in_order = clients_in_order && c->in_order() && c->results_missed() == 0;
  }
  checks.require("net.clients_in_order", clients_in_order);

  std::vector<std::vector<eval::GroundTruth>> truth;
  for (int k = 0; k < frames; ++k) {
    truth.push_back(truth_of(s.pool.at(k % kClients, k / kClients)));
  }
  const LatencySummary lat = summarize_latency(p.latency_ms);
  report.attempted = frames;
  report.failed = frames - p.answered;
  report.set_end_to_end(
      median_of(setup_s), lat, static_cast<double>(p.answered) / p.wall_s,
      p.cpu_s * 1e3 / static_cast<double>(std::max(1LL, p.answered)),
      lamr(p.detections, truth));
  report.note("busy_threads", std::to_string(kShards));
  report.note("frames_in_flight", std::to_string(kClients));

  if (args.trace) {
    report.set("dataset.render_s", median_of(render_s));
    report.set("svm.train_s", median_of(train_s));
    const LatencySummary traced_lat = summarize_latency(tp.latency_ms);
    report.set("trace.overhead_ratio", traced_lat.p50 / lat.p50);

    std::vector<double> request_p50, wait_p50, service_p50, fill;
    double dropped = 0.0;
    for (const auto& st : tp.shard_after) {
      request_p50.push_back(st.request_ms.p50);
      wait_p50.push_back(st.runtime.queue_wait_ms.p50);
      service_p50.push_back(st.runtime.service_ms.p50);
      fill.push_back(st.runtime.score_fill);
      dropped += static_cast<double>(st.runtime.dropped_queue +
                                     st.runtime.dropped_deadline + st.runtime.errors);
    }
    report.set("net.request_ms_p50", mean_of(request_p50));
    report.set("runtime.queue_wait_ms_p50", mean_of(wait_p50));
    report.set("runtime.service_ms_p50", mean_of(service_p50));
    report.set("runtime.dropped", dropped);

    const fleet::RouterStats rs = s.router->stats();  // before the probes
    long long lo = std::numeric_limits<long long>::max(), hi = 0;
    for (const auto& sh : rs.shards) {
      lo = std::min(lo, sh.frames_forwarded);
      hi = std::max(hi, sh.frames_forwarded);
    }
    report.set("fleet.shard_skew",
               lo > 0 ? static_cast<double>(hi) / static_cast<double>(lo) : 0.0);
    report.set("fleet.shed",
               static_cast<double>(rs.frames_shed_no_backend + rs.frames_shed_draining +
                                   rs.frames_shed_backpressure +
                                   rs.results_shed_backend + rs.results_shed_client));

    // Round trips with one frame in flight: straight to shard 0, then through
    // the router on a name the ring places on shard 0.
    bool probes_ok = true;
    auto direct = connect_client(s.shards.front()->port(), "probe-direct");
    const double direct_ms = probe_rtt_ms(*direct, s.pool, probes_ok);
    auto routed = connect_client(s.router->port(),
                                 names_on_shard("probe-", 0, 1).front());
    const double routed_ms = probe_rtt_ms(*routed, s.pool, probes_ok);
    checks.require("net.probes_answered", probes_ok);
    report.set("net.rtt_direct_ms_p50", direct_ms);
    report.set("fleet.router_hop_ms", routed_ms - direct_ms);

    Replayer replayer(hog, model, ms, score::kDefaultBatchCapacity);
    StageTimes sum;
    bool match = true;
    constexpr int kReplayFrames = 8;
    for (int i = 0; i < kReplayFrames; ++i) {
      sum += replayer.replay(s.pool.at(i % kClients, i).image, kReplayRounds, match);
    }
    set_front_end_metrics(report, checks, sum, kReplayFrames);
    checks.require("replay.detections_equal_engine", match);
    report.set("score.batch_fill", mean_of(fill));  // the shards' own fill

    // The wire codec over every distinct frame in submit order, with the
    // detections delivered for it.
    std::vector<const imgproc::ImageF*> sent_frames;
    std::vector<std::vector<detect::Detection>> dets;
    for (int k = 0; k < std::min(frames, kClients * kPoolPerClient); ++k) {
      sent_frames.push_back(&s.pool.at(k % kClients, k / kClients).image);
      dets.push_back(p.detections[static_cast<std::size_t>(k)]);
    }
    set_wire_metrics(report, checks, sent_frames, dets);
  }

  report.note("fingerprint", fp.to_json());
  report.note("checks", checks.to_json());
  report.correct = fp.ok() && checks.ok();
  if (!report.correct) report.failed = report.attempted;
  return report;
}

}  // namespace perfbench
