// Pluggable batched window scoring (pdet::score).
//
// The paper's real-time budget is dominated by per-window SVM classification,
// and the GPU pedestrian literature (Campmany et al., PAPERS.md) gets its
// wins by *batching* window scoring rather than by smarter math. This layer
// is the seam that makes batching (and accelerator offload) a configuration
// choice instead of a rewrite: the scanner fills a ScoreBatch — a contiguous
// feature block plus per-window metadata — and a ScoringBackend turns the
// whole batch into scores:
//
//   scan (hog::extract_window)──▶ ScoreBatch ──▶ ScoringBackend ──▶ scores
//                                 (rows+tags)     scalar | batch | hwsim
//
// Backends score rows independently, so a window's score never depends on
// what else shares its batch — the property that lets the runtime coalesce
// windows across streams (hub.hpp) without perturbing per-stream results.
//
// Contract notes:
//  * ScoreBatch storage is plain reusable scratch in the engine workspace
//    style: configure() re-shapes in place and never releases, so a warm
//    batch makes scoring allocation-free.
//  * Rows start 64-byte aligned (padded stride), so a vectorized kernel can
//    use aligned loads per row.
//  * Backends keep their own lock-free BackendStats; obs metrics for scoring
//    (svm.dot_products, score.batches, score.batch_fill) are recorded at the
//    *call site* (the scanner), not here — so a muted engine lane's counts
//    can be compensated exactly, and a cross-stream hub draining another
//    worker's batch does not mis-attribute them.
//  * The fault site "score.batch" (see fault/injector.hpp) fires inside
//    score(): a backend failure surfaces as an exception in the frame that
//    owns the batch and rides the runtime's poison-frame path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/svm/linear_svm.hpp"

namespace pdet::score {

/// Which scoring implementation serves a pipeline. kAuto resolves to the
/// PDET_SCORE_BACKEND environment override (CI forces `scalar` there) or to
/// kBatch, the blocked kernel. kScalar is the bit-identical port of the
/// pre-backend code path that tests pin for decision() equality.
enum class BackendKind : std::uint8_t {
  kAuto = 0,   ///< resolve via environment, default kBatch
  kScalar = 1, ///< per-row svm::LinearModel::decision (bit-identical)
  kBatch = 2,  ///< blocked/unrolled batch kernel (bounded-ULP vs scalar)
  kHwsim = 3,  ///< MACBAR offload model (quantized, simulated latency)
};

const char* to_string(BackendKind kind);

/// Parse a CLI spelling ("scalar" | "batch" | "hwsim" | "auto"). Returns
/// false on anything else, leaving `out` untouched.
bool parse_backend(std::string_view name, BackendKind& out);

/// Resolve kAuto: PDET_SCORE_BACKEND=scalar|batch (read once per process)
/// or kBatch. Explicit kinds pass through untouched, so tests pinning a
/// backend stay pinned under the CI override.
BackendKind resolve(BackendKind requested);

/// Windows per batch unless the caller picks otherwise. Large enough to
/// amortize per-batch costs, small enough that one batch of descriptors
/// (64 x ~4 KB) stays cache-resident.
inline constexpr std::size_t kDefaultBatchCapacity = 64;

/// A batch of candidate windows: `count` feature rows of `dimension` floats
/// (row stride padded so each row starts 64-byte aligned), a caller tag per
/// row (the scanner packs the window anchor), and a parallel score row
/// filled by the backend. Reusable scratch: configure() keeps storage.
class ScoreBatch {
 public:
  /// Re-shape for `dim`-float rows and `capacity` windows; clears the count.
  /// Never shrinks storage (engine-workspace reuse discipline).
  void configure(std::size_t dim, std::size_t capacity);

  std::size_t dimension() const { return dim_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  bool full() const { return count_ == capacity_; }

  /// Append a row: returns the (aligned) destination span for the caller to
  /// fill with the window descriptor. Requires !full().
  std::span<float> push(std::uint64_t tag);

  std::span<const float> row(std::size_t i) const;
  std::uint64_t tag(std::size_t i) const { return tags_[i]; }
  float score(std::size_t i) const { return scores_[i]; }
  void set_score(std::size_t i, float s) { scores_[i] = s; }

  /// Fraction of capacity used — the batch-fill metric.
  double fill() const {
    return capacity_ > 0
               ? static_cast<double>(count_) / static_cast<double>(capacity_)
               : 0.0;
  }

  /// Forget the rows (storage kept) — called after scores are consumed.
  void clear() { count_ = 0; }

  std::size_t capacity_bytes() const {
    return features_.capacity() * sizeof(float) +
           tags_.capacity() * sizeof(std::uint64_t) +
           scores_.capacity() * sizeof(float);
  }

 private:
  std::size_t dim_ = 0;
  std::size_t stride_ = 0;  ///< dim_ rounded up to 16 floats (64 bytes)
  std::size_t capacity_ = 0;
  std::size_t count_ = 0;
  float* base_ = nullptr;  ///< 64-byte aligned cursor into features_
  std::vector<float> features_;
  std::vector<std::uint64_t> tags_;
  std::vector<float> scores_;
};

/// Lifetime accounting of one backend instance (relaxed atomics inside, so
/// concurrent engine lanes and hub drains never contend). `capacity_sum`
/// accumulates batch capacities so mean fill = windows / capacity_sum.
struct BackendStats {
  long long batches = 0;       ///< score() calls
  long long windows = 0;       ///< rows scored
  long long capacity_sum = 0;  ///< sum of batch capacities at score() time

  double mean_fill() const {
    return capacity_sum > 0
               ? static_cast<double>(windows) / static_cast<double>(capacity_sum)
               : 0.0;
  }
};

/// The scoring seam. Implementations must be thread-safe (concurrent
/// score() calls on distinct batches) and must score rows independently of
/// one another and of batch composition.
class ScoringBackend {
 public:
  virtual ~ScoringBackend() = default;

  virtual BackendKind kind() const = 0;
  const char* name() const { return to_string(kind()); }

  /// Score rows [0, batch.size()): writes batch scores. The model must match
  /// batch.dimension(). May throw (fault site "score.batch", device faults);
  /// the batch's scores are then unspecified and the frame that owns it is
  /// expected to fail upward into the runtime's poison-frame path.
  virtual void score(const svm::LinearModel& model, ScoreBatch& batch) = 0;

  virtual BackendStats stats() const = 0;
};

/// Shared base for real (non-proxy) backends: the "score.batch" fault site
/// plus lock-free stats around a pure virtual kernel.
class BackendBase : public ScoringBackend {
 public:
  void score(const svm::LinearModel& model, ScoreBatch& batch) final;
  BackendStats stats() const override;

 protected:
  virtual void kernel(const svm::LinearModel& model, ScoreBatch& batch) = 0;

 private:
  std::atomic<long long> batches_{0};
  std::atomic<long long> windows_{0};
  std::atomic<long long> capacity_sum_{0};
};

/// Straight port of the pre-backend scan loop: one LinearModel::decision per
/// row, in row order — bit-identical to the historical inline path.
class ScalarBackend final : public BackendBase {
 public:
  BackendKind kind() const override { return BackendKind::kScalar; }

 protected:
  void kernel(const svm::LinearModel& model, ScoreBatch& batch) override;
};

/// Blocked batch kernel: window pairs share one pass over the weight vector
/// (weight reuse) and each accumulation is 4-way unrolled into independent
/// double partials (breaks the FP-add latency chain the scalar loop
/// serializes on). Summation order differs from scalar, so scores agree to
/// bounded ULP, not bitwise — post-NMS boxes are identical (tested).
class BatchBackend final : public BackendBase {
 public:
  BackendKind kind() const override { return BackendKind::kBatch; }

 protected:
  void kernel(const svm::LinearModel& model, ScoreBatch& batch) override;
};

/// Construct a CPU backend. kAuto is resolved first; kHwsim returns nullptr
/// (the offload backend lives in pdet_hwsim — construct it there and pass it
/// down as a shared scorer).
std::unique_ptr<ScoringBackend> make_backend(BackendKind kind);

}  // namespace pdet::score
