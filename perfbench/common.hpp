// Shared plumbing of the end-to-end benchmark: arguments, clocks, process
// resource counters, the scene pool, the span recorder, the work fingerprint
// and the report every workload fills in.
//
// A workload is one function `Report run_<name>(const Args&)`. It sets up
// (trains the model, renders every frame, warms the system) kSetupRounds
// times and keeps the last, then drives a fixed, seed-determined frame
// sequence through the public pdet API while timing each frame. With
// --trace 1 it additionally records spans around the public calls and
// replays its frames stage by stage (replay.hpp) for the per-layer metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/pedestrian_detector.hpp"
#include "src/dataset/multistream.hpp"
#include "src/detect/detection.hpp"
#include "src/eval/detection_eval.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Self-test hook: name of one fingerprint or output-check expectation to
  /// offset on purpose. The run must then report itself failed.
  std::string perturb;
};

/// Full set-ups per run; setup_s is their median (the last one is kept).
inline constexpr int kSetupRounds = 3;
/// Fixed seed of the training windows: the model is a constant of the
/// benchmark, so accuracy moves only with the rendered frames.
inline constexpr std::uint64_t kTrainSeed = 71;
inline constexpr int kTrainPositives = 150;
inline constexpr int kTrainNegatives = 300;
/// Tolerance of the traced run's stage reconciliation: the replayed stages
/// must sum to detect.engine_ms within this share of it.
inline constexpr double kReconcileTolerance = 0.15;

double seconds_since(Clock::time_point t0);
double ms_between(Clock::time_point a, Clock::time_point b);

/// Process user+sys CPU seconds (getrusage).
double process_cpu_seconds();

/// Resident memory the system under test holds: the kernel's high-water
/// mark (VmHWM) over the timed phase, less the resident set just before the
/// system was built. Built after training and rendering, so neither the
/// frame pool nor the training data counts, and after returning freed heap
/// to the kernel, so earlier set-up rounds' leftovers neither count nor get
/// reused unseen (main() also pins the mmap threshold for this).
class RssProbe {
 public:
  /// Right before the system is constructed (every set-up round).
  void before_system();
  /// Right before the timed phase: resets the high-water mark to the
  /// current resident set (/proc/self/clear_refs). Without the reset the
  /// mark would keep the set-up's peak.
  void before_timed();
  /// Right after the timed phase: the metric, in MiB.
  double peak_mb() const;
  double base_mb() const { return base_mb_; }
  bool reset_ok() const { return reset_ok_; }

 private:
  double base_mb_ = 0.0;
  bool reset_ok_ = false;
};

/// Thread budget: never more busy threads than the host has cores.
int host_cores();
int budget(int wanted);

/// Model training, timed.
struct Trained {
  pdet::core::PedestrianDetector detector;
  double seconds = 0.0;
};
Trained train_detector();

/// Every distinct frame of a workload, rendered in setup.
struct ScenePool {
  std::vector<pdet::dataset::Scene> scenes;  ///< index = stream * per_stream + i
  int per_stream = 0;
  double seconds = 0.0;  ///< render wall time
  const pdet::dataset::Scene& at(int stream, int i) const {
    return scenes[static_cast<std::size_t>(stream * per_stream +
                                           i % per_stream)];
  }
};
/// Renders `streams` x `per_stream` frames of `source` on up to `threads`
/// threads (the frames are pure functions of (seed, stream, index)).
ScenePool render_pool(const pdet::dataset::MultiStreamSource& source,
                      int streams, int per_stream, int threads);

std::vector<pdet::eval::GroundTruth> truth_of(const pdet::dataset::Scene& s);

/// Log-average miss rate of delivered detections against rendered truth.
double lamr(const std::vector<std::vector<pdet::detect::Detection>>& dets,
            const std::vector<std::vector<pdet::eval::GroundTruth>>& truth);

/// Windows the multi-scale scan evaluates on a `w` x `h` input, derived from
/// geometry alone (empty cell grid through the public pyramid functions), so
/// it is an expectation independent of what the system under test reports.
long long windows_for_shape(int w, int h, const pdet::hog::HogParams& params,
                            const pdet::detect::MultiscaleOptions& options);

/// In-memory span recorder (benchmark-side: spans wrap public calls).
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  bool enabled() const { return enabled_; }
  void add(const char* name, Clock::time_point a, Clock::time_point b);
  /// Durations (ms) of every span called `name`, in record order.
  std::vector<double> durations_ms(const char* name) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), name_(name),
        start_(tracer.enabled() ? Clock::now() : Clock::time_point{}) {}
  ~ScopedSpan() {
    if (tracer_.enabled()) tracer_.add(name_, start_, Clock::now());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  const char* name_;
  Clock::time_point start_;
};

double median_of(std::vector<double> v);
double mean_of(const std::vector<double>& v);

/// Latency summary: median and the tail — the highest percentile with at
/// least ten samples beyond it, capped at p99 (kTailPercentileCap). Without
/// the cap a long run's tail would sit at p99.9 and follow rare host
/// preemptions more than the system. Missing frames enter as +infinity.
inline constexpr double kTailPercentileCap = 99.0;
struct LatencySummary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;  ///< e.g. 86.7 = p86.7
  int samples = 0;
  int beyond_tail = 0;
};
LatencySummary summarize_latency(std::vector<double> latencies_ms);

/// Expected-versus-observed work counts. Every entry must match exactly;
/// the expectations are derived from the inputs, never from timing.
class Fingerprint {
 public:
  explicit Fingerprint(std::string perturb) : perturb_(std::move(perturb)) {}
  /// Record one counter; `perturb` matching `name` offsets the expectation.
  void expect(const std::string& name, long long expected, long long observed);
  bool ok() const { return ok_; }
  /// FNV-1a over the observed values, as hex (repeats exactly across runs of
  /// one seed).
  std::string digest() const;
  std::string to_json() const;

 private:
  std::string perturb_;
  std::vector<std::pair<std::string, long long>> observed_;
  std::string json_;
  bool ok_ = true;
};

/// Output check outcome (boolean facts the run asserts about its results).
class Checks {
 public:
  explicit Checks(std::string perturb) : perturb_(std::move(perturb)) {}
  /// A `perturb` naming this check inverts its expectation.
  void require(const std::string& name, bool holds);
  bool ok() const { return failed_.empty(); }
  std::string to_json() const;

 private:
  std::string perturb_;
  std::vector<std::string> passed_;
  std::vector<std::string> failed_;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};
/// The metric names and units BENCHMARK.json declares, in its order.
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

struct Report {
  long long attempted = 0;
  long long failed = 0;
  bool correct = true;
  std::map<std::string, double> metrics;
  /// Free-form context printed before the result line (samples, percentile,
  /// host, fingerprint, checks).
  std::map<std::string, std::string> info;

  /// Set a declared metric (throws std::logic_error on an unknown name).
  void set(const std::string& name, double value);
  void note(const std::string& key, const std::string& json_value) {
    info[key] = json_value;
  }
  /// Fill the end-to-end block shared by every workload.
  void set_end_to_end(double setup_s, const LatencySummary& latency,
                      double fps, double cpu_ms_per_frame, double lamr_value);
  /// peak_rss_mb, read right after the untraced timed phase.
  void set_peak_rss(const RssProbe& rss);
};

/// Print the context line and the result line: the end-to-end metrics, or
/// with `trace` every per-layer metric (0 for a layer the workload bypasses,
/// listed under "bypassed").
void print_report(const Report& report, const Args& args, double loadavg);

/// The workloads (one translation unit each).
Report run_hd_frame(const Args& args);
Report run_cams4(const Args& args);
Report run_fleet_small(const Args& args);

/// Frames in a timed phase: `per_second` x --seconds, and never fewer than
/// kMinFrames so the tail percentile always has ten samples beyond it. A
/// traced run times two phases (untraced, then traced, for the tracing
/// overhead) of half that each, so it measures for as long as an untraced
/// run.
inline constexpr int kMinFrames = 21;
int timed_frames(const Args& args, double per_second);

std::string json_number(double v);
std::string json_string(const std::string& s);

}  // namespace perfbench
