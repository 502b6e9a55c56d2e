#include "perfbench/common.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "src/dataset/builder.hpp"
#include "src/detect/scanner.hpp"
#include "src/hog/block_grid.hpp"
#include "src/hog/cell_grid.hpp"
#include "src/hog/feature_scale.hpp"

namespace perfbench {

using namespace pdet;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

namespace {

/// A "Key: value kB" field of /proc/self/status, in MiB (0 if absent).
double proc_status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == field) {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0.0;
}

}  // namespace

void RssProbe::before_system() {
  malloc_trim(0);
  base_mb_ = proc_status_mb("VmRSS:");
}

void RssProbe::before_timed() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  reset_ok_ = static_cast<bool>(clear);
}

double RssProbe::peak_mb() const {
  return proc_status_mb("VmHWM:") - base_mb_;
}

int host_cores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int budget(int wanted) { return std::max(1, std::min(wanted, host_cores())); }

Trained train_detector() {
  Trained t;
  const auto t0 = Clock::now();
  t.detector.train(
      dataset::make_window_set(kTrainSeed, kTrainPositives, kTrainNegatives));
  t.seconds = seconds_since(t0);
  return t;
}

ScenePool render_pool(const dataset::MultiStreamSource& source, int streams,
                      int per_stream, int threads) {
  ScenePool pool;
  pool.per_stream = per_stream;
  const int total = streams * per_stream;
  pool.scenes.resize(static_cast<std::size_t>(total));
  const auto t0 = Clock::now();
  const int lanes = std::max(1, std::min(threads, total));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(lanes));
  for (int lane = 0; lane < lanes; ++lane) {
    workers.emplace_back([&, lane] {
      for (int k = lane; k < total; k += lanes) {
        pool.scenes[static_cast<std::size_t>(k)] =
            source.frame(k / per_stream, k % per_stream);
      }
    });
  }
  for (auto& w : workers) w.join();
  pool.seconds = seconds_since(t0);
  return pool;
}

std::vector<eval::GroundTruth> truth_of(const dataset::Scene& s) {
  std::vector<eval::GroundTruth> out;
  out.reserve(s.truth.size());
  for (const auto& b : s.truth) out.push_back({b.x, b.y, b.width, b.height});
  return out;
}

double lamr(const std::vector<std::vector<detect::Detection>>& dets,
            const std::vector<std::vector<eval::GroundTruth>>& truth) {
  const auto curve = eval::miss_rate_curve(dets, truth);
  return eval::log_average_miss_rate(curve);
}

long long windows_for_shape(int w, int h, const hog::HogParams& params,
                            const detect::MultiscaleOptions& options) {
  hog::CellGrid base;
  base.reset(w / params.cell_size, h / params.cell_size, params.bins);
  hog::CellGrid level;
  hog::BlockGrid blocks;
  std::vector<float> scratch;
  long long total = 0;
  for (const double s : options.scales) {
    const hog::CellGrid* cells = &base;
    if (s != 1.0) {
      hog::downscale_cell_grid_into(base, s, options.feature_interp, level);
      cells = &level;
    }
    if (cells->cells_x() < params.cells_per_window_x() ||
        cells->cells_y() < params.cells_per_window_y()) {
      continue;
    }
    hog::normalize_cells_into(*cells, params, scratch, blocks);
    total += detect::scan_window_count(blocks, params, options.scan.cell_stride);
  }
  return total;
}

void Tracer::add(const char* name, Clock::time_point a, Clock::time_point b) {
  const auto ns = [](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  };
  spans_.push_back(Span{name, ns(a), ns(b)});
}

std::vector<double> Tracer::durations_ms(const char* name) const {
  std::vector<double> out;
  const std::string key(name);
  for (const Span& s : spans_) {
    if (key == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  }
  return out;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

LatencySummary summarize_latency(std::vector<double> latencies_ms) {
  LatencySummary out;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const int n = static_cast<int>(latencies_ms.size());
  out.samples = n;
  if (n == 0) return out;
  out.p50 = median_of(latencies_ms);
  // The value with exactly ten samples beyond it, or the p99 value when
  // that is lower; below eleven samples no percentile has ten beyond, and
  // the maximum is reported instead.
  const int p99_rank = static_cast<int>(
      std::ceil(kTailPercentileCap / 100.0 * n)) - 1;
  const int rank = std::max(0, std::min(n - 11, p99_rank));
  out.tail = latencies_ms[static_cast<std::size_t>(rank)];
  out.beyond_tail = n - 1 - rank;
  out.tail_percentile = 100.0 * static_cast<double>(rank + 1) / n;
  return out;
}

void Fingerprint::expect(const std::string& name, long long expected,
                         long long observed) {
  if (name == perturb_) expected += 1;
  const bool match = expected == observed;
  ok_ = ok_ && match;
  observed_.emplace_back(name, observed);
  if (!json_.empty()) json_ += ",";
  json_ += json_string(name) + ":{\"expected\":" + std::to_string(expected) +
           ",\"observed\":" + std::to_string(observed) +
           (match ? "}" : ",\"mismatch\":true}");
}

std::string Fingerprint::digest() const {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const std::string& bytes) {
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  };
  for (const auto& [name, value] : observed_) {
    mix(name);
    mix(std::to_string(value));
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string Fingerprint::to_json() const {
  return "{\"digest\":\"" + digest() + "\",\"ok\":" + (ok_ ? "true" : "false") +
         ",\"counts\":{" + json_ + "}}";
}

void Checks::require(const std::string& name, bool holds) {
  if (name == perturb_) holds = !holds;
  (holds ? passed_ : failed_).push_back(name);
}

std::string Checks::to_json() const {
  const auto list = [](const std::vector<std::string>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      s += (i ? "," : "") + json_string(v[i]);
    }
    return s + "]";
  };
  return "{\"passed\":" + list(passed_) + ",\"failed\":" + list(failed_) + "}";
}

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},        {"latency_ms_p50", "ms"},
    {"latency_ms_tail", "ms"}, {"fps", "1/s"},
    {"cpu_ms_per_frame", "ms"}, {"lamr", "ratio"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"dataset.render_s", "s"},          {"svm.train_s", "s"},
    {"imgproc.gradient_ms", "ms"},      {"hog.cell_grid_ms", "ms"},
    {"hog.normalize_ms", "ms"},         {"hog.downscale_ms", "ms"},
    {"detect.scan_ms", "ms"},           {"detect.nms_us", "us"},
    {"detect.engine_ms", "ms"},         {"detect.stage_gap", "ratio"},
    {"detect.windows_per_frame", "count"},
    {"score.ns_per_window", "ns"},      {"score.batch_fill", "ratio"},
    {"tile.process_ms", "ms"},          {"tile.halo_ratio", "ratio"},
    {"tile.lane_imbalance", "ratio"},   {"guard.inspect_us", "us"},
    {"guard.unusable", "count"},        {"runtime.submit_us", "us"},
    {"runtime.queue_wait_ms_p50", "ms"}, {"runtime.service_ms_p50", "ms"},
    {"runtime.dropped", "count"},       {"runtime.generator_lag_ms", "ms"},
    {"net.encode_us", "us"},            {"net.decode_us", "us"},
    {"net.request_ms_p50", "ms"},       {"net.rtt_direct_ms_p50", "ms"},
    {"net.bytes_per_frame", "bytes"},   {"fleet.router_hop_ms", "ms"},
    {"fleet.shard_skew", "ratio"},      {"fleet.shed", "count"},
    {"trace.overhead_ratio", "ratio"},
};

void Report::set(const std::string& name, double value) {
  for (const auto* table : {&kEndToEnd, &kPerLayer}) {
    for (const MetricSpec& spec : *table) {
      if (name == spec.name) {
        metrics[name] = value;
        return;
      }
    }
  }
  throw std::logic_error("undeclared metric " + name);
}

void Report::set_end_to_end(double setup_s, const LatencySummary& latency,
                            double fps, double cpu_ms_per_frame,
                            double lamr_value) {
  set("setup_s", setup_s);
  set("latency_ms_p50", latency.p50);
  set("latency_ms_tail", latency.tail);
  set("fps", fps);
  set("cpu_ms_per_frame", cpu_ms_per_frame);
  set("lamr", lamr_value);
  note("latency_samples", std::to_string(latency.samples));
  note("latency_tail_percentile", json_number(latency.tail_percentile));
  note("latency_samples_beyond_tail", std::to_string(latency.beyond_tail));
}

void Report::set_peak_rss(const RssProbe& rss) {
  set("peak_rss_mb", rss.peak_mb());
  note("rss_base_mb", json_number(rss.base_mb()));
  note("rss_hwm_reset", rss.reset_ok() ? "true" : "false");
}

void print_report(const Report& report, const Args& args, double loadavg) {
  std::string info = "{\"workload\":" + json_string(args.workload) +
                     ",\"seed\":" + std::to_string(args.seed) +
                     ",\"seconds\":" + std::to_string(args.seconds) +
                     ",\"trace\":" + (args.trace ? "true" : "false") +
                     ",\"nproc\":" + std::to_string(host_cores()) +
                     ",\"loadavg_1m_at_start\":" + json_number(loadavg);
  for (const auto& [key, value] : report.info) {
    info += "," + json_string(key) + ":" + value;
  }
  std::string bypassed;
  std::string metrics;
  for (const MetricSpec& spec : args.trace ? kPerLayer : kEndToEnd) {
    const auto it = report.metrics.find(spec.name);
    double value = 0.0;
    if (it != report.metrics.end()) {
      value = it->second;
    } else if (args.trace) {
      bypassed += std::string(bypassed.empty() ? "" : ",") +
                  json_string(spec.name);
    }
    metrics += std::string(metrics.empty() ? "" : ", ") +
               json_string(spec.name) + ": {\"value\": " + json_number(value) +
               ", \"unit\": " + json_string(spec.unit) + "}";
  }
  if (args.trace) info += ",\"bypassed\":[" + bypassed + "]";
  std::printf("perfbench-info %s}\n", info.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              report.correct ? "true" : "false", report.attempted,
              report.failed, metrics.c_str());
  std::fflush(stdout);
}

int timed_frames(const Args& args, double per_second) {
  const double share = args.trace ? 0.5 : 1.0;
  return std::max(kMinFrames, static_cast<int>(std::lround(
                                  share * per_second * args.seconds)));
}

std::string json_number(double v) {
  // A missing frame's latency is +infinity; JSON has no such literal, so
  // any non-finite value is written as a huge finite sentinel.
  if (!std::isfinite(v)) v = v < 0 ? -1e300 : 1e300;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace perfbench
