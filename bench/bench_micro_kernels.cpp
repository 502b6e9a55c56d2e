// Experiment E7 — google-benchmark micro kernels for every stage of the
// detection chain (software and fixed-point hardware arithmetic).
#include <benchmark/benchmark.h>

#include <cmath>

#include "src/detect/nms.hpp"
#include "src/detect/scanner.hpp"
#include "src/fixedpoint/cordic.hpp"
#include "src/hog/descriptor.hpp"
#include "src/hog/feature_scale.hpp"
#include "src/hwsim/fixed_pipeline.hpp"
#include "src/hwsim/pipeline.hpp"
#include "src/hwsim/score_backend.hpp"
#include "src/score/backend.hpp"
#include "src/imgproc/convert.hpp"
#include "src/imgproc/gradient.hpp"
#include "src/imgproc/resize.hpp"
#include "src/svm/linear_svm.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace pdet;

imgproc::ImageF random_image(int w, int h, std::uint64_t seed) {
  util::Rng rng(seed);
  imgproc::ImageF img(w, h);
  for (float& p : img.pixels()) p = static_cast<float>(rng.uniform());
  return img;
}

void BM_Gradient960x540(benchmark::State& state) {
  const imgproc::ImageF img = random_image(960, 540, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(imgproc::compute_gradients(img));
  }
}
BENCHMARK(BM_Gradient960x540);

void BM_CellGridWindow(benchmark::State& state) {
  const imgproc::ImageF img = random_image(64, 128, 2);
  const hog::HogParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hog::compute_cell_grid(img, params));
  }
}
BENCHMARK(BM_CellGridWindow);

void BM_CellGridFrame960x540(benchmark::State& state) {
  const imgproc::ImageF img = random_image(960, 540, 3);
  const hog::HogParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hog::compute_cell_grid(img, params));
  }
}
BENCHMARK(BM_CellGridFrame960x540);

// --- tile-size sweep: gradient + histogram kernels at candidate tile dims ---
// The UHD pipeline (pdet::tile) picks a core tile size; these rows show what
// the per-pixel front end costs per candidate: VGA-class 640x480, the
// default 960x544 tile (plus halo it crops ~1200x800, dominated by the same
// per-pixel cost), and 720p-class 1280x720. The cell-grid rows are the
// engine's whole front end — one row-streaming pass from pixels to
// histograms that keeps only row buffers. The gradient rows run the same
// row pass but store all four full-frame planes, so their extra cost over
// the shared row work is memory traffic the engine never pays. Pixels/sec
// should be flat across sizes — the row buffers stay cache-resident at every
// width — so the tile size choice is about halo overhead, not kernel
// efficiency (see DESIGN.md tiling section).
void BM_GradientTileSweep(benchmark::State& state) {
  const int w = static_cast<int>(state.range(0));
  const int h = static_cast<int>(state.range(1));
  const imgproc::ImageF img = random_image(w, h, 21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(imgproc::compute_gradients(img));
  }
  state.SetItemsProcessed(state.iterations() * w * h);
}
BENCHMARK(BM_GradientTileSweep)
    ->Args({640, 480})
    ->Args({960, 544})
    ->Args({1280, 720});

void BM_CellGridTileSweep(benchmark::State& state) {
  const int w = static_cast<int>(state.range(0));
  const int h = static_cast<int>(state.range(1));
  const imgproc::ImageF img = random_image(w, h, 22);
  const hog::HogParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hog::compute_cell_grid(img, params));
  }
  state.SetItemsProcessed(state.iterations() * w * h);
}
BENCHMARK(BM_CellGridTileSweep)
    ->Args({640, 480})
    ->Args({960, 544})
    ->Args({1280, 720});

void BM_NormalizeCellsFrame(benchmark::State& state) {
  const hog::HogParams params;
  const hog::CellGrid cells =
      hog::compute_cell_grid(random_image(960, 540, 4), params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hog::normalize_cells(cells, params));
  }
}
BENCHMARK(BM_NormalizeCellsFrame);

void BM_FeatureDownscaleFrame(benchmark::State& state) {
  const hog::HogParams params;
  const hog::CellGrid cells =
      hog::compute_cell_grid(random_image(960, 540, 5), params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hog::downscale_cell_grid(cells, 2.0, hog::FeatureInterp::kBilinear));
  }
}
BENCHMARK(BM_FeatureDownscaleFrame);

void BM_ImageResizeHalfFrame(benchmark::State& state) {
  const imgproc::ImageF img = random_image(960, 540, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        imgproc::resize_scale(img, 0.5, imgproc::Interp::kBilinear));
  }
}
BENCHMARK(BM_ImageResizeHalfFrame);

void BM_ImageResizeBicubicHalfFrame(benchmark::State& state) {
  const imgproc::ImageF img = random_image(960, 540, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        imgproc::resize_scale(img, 0.5, imgproc::Interp::kBicubic));
  }
}
BENCHMARK(BM_ImageResizeBicubicHalfFrame);

void BM_SvmDecision4608(benchmark::State& state) {
  util::Rng rng(7);
  svm::LinearModel model;
  model.weights.resize(4608);
  for (auto& w : model.weights) w = static_cast<float>(rng.normal(0, 0.02));
  std::vector<float> x(4608);
  for (auto& v : x) v = static_cast<float>(rng.uniform());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.decision(x));
  }
}
BENCHMARK(BM_SvmDecision4608);

// --- scoring backends: scores/sec vs batch size ---
// One ScoreBatch of `batch` windows (descriptor-sized random rows) pushed
// through each backend. Scalar is the per-row reference loop; batch is the
// blocked/unrolled kernel whose advantage should grow with batch size (one
// weight-vector pass serves two windows); hwsim runs the quantized MACBAR
// model with latency simulation off so the measurement is host arithmetic,
// not modeled device time.
svm::LinearModel scoring_model(std::size_t dim, std::uint64_t seed) {
  util::Rng rng(seed);
  svm::LinearModel model;
  model.weights.resize(dim);
  for (auto& w : model.weights) w = static_cast<float>(rng.normal(0, 0.02));
  model.bias = 0.1f;
  return model;
}

void fill_batch(score::ScoreBatch& batch, std::size_t dim, std::size_t count,
                std::uint64_t seed) {
  util::Rng rng(seed);
  batch.configure(dim, count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::span<float> dst = batch.push(i);
    for (std::size_t d = 0; d < dim; ++d) {
      dst[d] = static_cast<float>(rng.uniform());
    }
  }
}

void score_backend_bench(benchmark::State& state,
                         score::ScoringBackend& backend) {
  const auto kDim =
      static_cast<std::size_t>(hog::HogParams().descriptor_size());
  const svm::LinearModel model = scoring_model(kDim, 13);
  const auto count = static_cast<std::size_t>(state.range(0));
  score::ScoreBatch batch;
  fill_batch(batch, kDim, count, 14);
  for (auto _ : state) {
    backend.score(model, batch);
    benchmark::DoNotOptimize(batch.score(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}

void BM_ScoreScalar(benchmark::State& state) {
  score::ScalarBackend backend;
  score_backend_bench(state, backend);
}
BENCHMARK(BM_ScoreScalar)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

void BM_ScoreBatch(benchmark::State& state) {
  score::BatchBackend backend;
  score_backend_bench(state, backend);
}
BENCHMARK(BM_ScoreBatch)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

void BM_ScoreHwsim(benchmark::State& state) {
  hwsim::HwsimBackendOptions opts;
  opts.simulate_latency = false;
  hwsim::HwsimScoreBackend backend(opts);
  score_backend_bench(state, backend);
}
BENCHMARK(BM_ScoreHwsim)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

void BM_ScanLevel960x540(benchmark::State& state) {
  const hog::HogParams params;
  util::Rng rng(8);
  svm::LinearModel model;
  model.weights.resize(static_cast<std::size_t>(params.descriptor_size()));
  for (auto& w : model.weights) w = static_cast<float>(rng.normal(0, 0.02));
  const hog::CellGrid cells =
      hog::compute_cell_grid(random_image(960, 540, 9), params);
  const hog::BlockGrid blocks = hog::normalize_cells(cells, params);
  detect::ScanOptions scan;
  scan.threshold = 1e9f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detect::scan_level(blocks, params, model, scan));
  }
}
BENCHMARK(BM_ScanLevel960x540);

void BM_CordicVectoring(benchmark::State& state) {
  const fixedpoint::Cordic cordic(static_cast<int>(state.range(0)));
  double fx = 113.0;
  double fy = -77.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cordic.vectoring(fx, fy));
  }
}
BENCHMARK(BM_CordicVectoring)->Arg(8)->Arg(12)->Arg(16);

void BM_LibmAtan2Hypot(benchmark::State& state) {
  double fx = 113.0;
  double fy = -77.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(std::atan2(fy, fx) + std::hypot(fx, fy));
  }
}
BENCHMARK(BM_LibmAtan2Hypot);

void BM_FixedPipelineWindow(benchmark::State& state) {
  const hog::HogParams params;
  const hwsim::FixedHogPipeline pipe(params);
  const imgproc::ImageU8 img = imgproc::to_u8(random_image(64, 128, 10));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipe.normalize(pipe.compute_cells(img)));
  }
}
BENCHMARK(BM_FixedPipelineWindow);

void BM_CyclePipeline256(benchmark::State& state) {
  hwsim::PipelineConfig config;
  config.frame_width = 256;
  config.frame_height = 256;
  config.extra_scales = {2.0};
  for (auto _ : state) {
    hwsim::AcceleratorPipeline pipeline(config);
    benchmark::DoNotOptimize(pipeline.run_frame());
  }
}
BENCHMARK(BM_CyclePipeline256);

void BM_Nms(benchmark::State& state) {
  util::Rng rng(11);
  std::vector<detect::Detection> dets;
  for (int i = 0; i < 500; ++i) {
    detect::Detection d;
    d.x = rng.uniform_int(0, 800);
    d.y = rng.uniform_int(0, 400);
    d.width = 64;
    d.height = 128;
    d.score = static_cast<float>(rng.uniform(-1, 1));
    dets.push_back(d);
  }
  for (auto _ : state) {
    auto copy = dets;
    benchmark::DoNotOptimize(detect::nms(std::move(copy), 0.45));
  }
}
BENCHMARK(BM_Nms);

}  // namespace
