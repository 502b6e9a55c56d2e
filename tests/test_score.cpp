// Tests for pdet::score: the ScoreBatch scratch container, backend
// selection/parsing, the scalar/batch/hwsim scoring backends (bit-identity,
// bounded-ULP, batch-composition independence), the cross-stream ScoreHub,
// and the backend seam end to end through the engine and the runtime server
// (including the "score.batch" fault site riding the poison-frame path).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <vector>

#include "src/detect/engine.hpp"
#include "src/detect/multiscale.hpp"
#include "src/fault/injector.hpp"
#include "src/hwsim/score_backend.hpp"
#include "src/runtime/server.hpp"
#include "src/score/backend.hpp"
#include "src/score/hub.hpp"
#include "src/svm/linear_svm.hpp"
#include "src/util/rng.hpp"

namespace pdet::score {
namespace {

svm::LinearModel make_model(std::size_t dim, std::uint64_t seed) {
  util::Rng rng(seed);
  svm::LinearModel model;
  model.weights.resize(dim);
  for (float& w : model.weights) {
    w = static_cast<float>(rng.normal(0.0, 0.05));
  }
  model.bias = 0.125f;
  return model;
}

void fill_rows(ScoreBatch& batch, std::size_t dim, std::size_t count,
               std::uint64_t seed) {
  util::Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const std::span<float> dst = batch.push(i);
    ASSERT_EQ(dst.size(), dim);
    for (float& v : dst) v = static_cast<float>(rng.uniform());
  }
}

// --- ScoreBatch -------------------------------------------------------------

TEST(ScoreBatch, RowsAreAlignedTaggedAndSized) {
  ScoreBatch batch;
  batch.configure(37, 5);  // deliberately not a multiple of the row stride
  EXPECT_EQ(batch.dimension(), 37u);
  EXPECT_EQ(batch.capacity(), 5u);
  EXPECT_TRUE(batch.empty());
  EXPECT_DOUBLE_EQ(batch.fill(), 0.0);

  for (std::uint64_t i = 0; i < 5; ++i) {
    const std::span<float> dst = batch.push(100 + i);
    EXPECT_EQ(dst.size(), 37u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(dst.data()) % 64, 0u)
        << "row " << i << " not 64-byte aligned";
    dst[0] = static_cast<float>(i);
  }
  EXPECT_TRUE(batch.full());
  EXPECT_DOUBLE_EQ(batch.fill(), 1.0);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(batch.tag(i), 100 + i);
    EXPECT_EQ(batch.row(i)[0], static_cast<float>(i));
  }
  batch.clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.capacity(), 5u);  // storage and shape survive clear()
}

TEST(ScoreBatch, ConfigureReusesStorageAndNeverShrinks) {
  ScoreBatch batch;
  batch.configure(4608, 64);
  fill_rows(batch, 4608, 64, 1);
  const std::size_t high_water = batch.capacity_bytes();
  ASSERT_GT(high_water, 0u);

  // Smaller shape: same storage, no release.
  batch.configure(128, 4);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.capacity_bytes(), high_water);
  fill_rows(batch, 128, 4, 2);
  EXPECT_EQ(batch.size(), 4u);

  // Back to the big shape: still the same storage.
  batch.configure(4608, 64);
  EXPECT_EQ(batch.capacity_bytes(), high_water);
}

// --- parsing / resolution ---------------------------------------------------

TEST(BackendKind, ParseAcceptsCliSpellingsAndRejectsJunk) {
  BackendKind kind = BackendKind::kHwsim;
  EXPECT_TRUE(parse_backend("scalar", kind));
  EXPECT_EQ(kind, BackendKind::kScalar);
  EXPECT_TRUE(parse_backend("batch", kind));
  EXPECT_EQ(kind, BackendKind::kBatch);
  EXPECT_TRUE(parse_backend("hwsim", kind));
  EXPECT_EQ(kind, BackendKind::kHwsim);
  EXPECT_TRUE(parse_backend("auto", kind));
  EXPECT_EQ(kind, BackendKind::kAuto);

  kind = BackendKind::kBatch;
  EXPECT_FALSE(parse_backend("gpu", kind));
  EXPECT_EQ(kind, BackendKind::kBatch);  // left untouched on failure
  EXPECT_FALSE(parse_backend("", kind));

  EXPECT_STREQ(to_string(BackendKind::kScalar), "scalar");
  EXPECT_STREQ(to_string(BackendKind::kBatch), "batch");
  EXPECT_STREQ(to_string(BackendKind::kHwsim), "hwsim");
  EXPECT_STREQ(to_string(BackendKind::kAuto), "auto");
}

TEST(BackendKind, ResolvePinsExplicitKindsAndGroundsAuto) {
  // Explicit kinds pass through untouched — the property that keeps tests
  // pinned under CI's PDET_SCORE_BACKEND=scalar matrix entry.
  EXPECT_EQ(resolve(BackendKind::kScalar), BackendKind::kScalar);
  EXPECT_EQ(resolve(BackendKind::kBatch), BackendKind::kBatch);
  EXPECT_EQ(resolve(BackendKind::kHwsim), BackendKind::kHwsim);

  // kAuto grounds to whatever the environment says, restricted to the CPU
  // backends (hwsim needs a constructed device).
  const BackendKind resolved = resolve(BackendKind::kAuto);
  EXPECT_TRUE(resolved == BackendKind::kScalar ||
              resolved == BackendKind::kBatch);
  // Without an override kAuto is the batch kernel.
  const char* env = std::getenv("PDET_SCORE_BACKEND");
  if (env == nullptr || std::string_view(env) != "scalar") {
    EXPECT_EQ(resolved, BackendKind::kBatch);
  } else {
    EXPECT_EQ(resolved, BackendKind::kScalar);
  }
}

TEST(BackendKind, MakeBackendConstructsCpuKindsOnly) {
  const auto scalar = make_backend(BackendKind::kScalar);
  ASSERT_NE(scalar, nullptr);
  EXPECT_EQ(scalar->kind(), BackendKind::kScalar);
  const auto batch = make_backend(BackendKind::kBatch);
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->kind(), BackendKind::kBatch);
  // hwsim is a device, not a bare enum: construct via pdet_hwsim instead.
  EXPECT_EQ(make_backend(BackendKind::kHwsim), nullptr);
}

// --- ScalarBackend: bit-identical port --------------------------------------

TEST(ScalarBackend, BitIdenticalToLinearModelDecision) {
  const std::size_t dim = 1023;  // odd: exercises every tail path
  const svm::LinearModel model = make_model(dim, 3);
  ScoreBatch batch;
  batch.configure(dim, 9);
  fill_rows(batch, dim, 9, 4);

  ScalarBackend backend;
  backend.score(model, batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch.score(i), model.decision(batch.row(i)))
        << "row " << i << " diverged from the historical inline loop";
  }

  const BackendStats stats = backend.stats();
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.windows, 9);
  EXPECT_EQ(stats.capacity_sum, 9);
  EXPECT_DOUBLE_EQ(stats.mean_fill(), 1.0);
}

// --- BatchBackend: bounded ULP + composition independence -------------------

TEST(BatchBackend, BoundedUlpAgainstScalarAcrossSeeds) {
  const std::size_t dim = 4608;  // paper descriptor size
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    const svm::LinearModel model = make_model(dim, seed);
    ScoreBatch rows;
    rows.configure(dim, 33);  // odd count: the pair loop leaves a tail row
    fill_rows(rows, dim, 33, seed + 100);

    ScoreBatch scalar_rows;
    scalar_rows.configure(dim, 33);
    for (std::size_t i = 0; i < 33; ++i) {
      const std::span<float> dst = scalar_rows.push(rows.tag(i));
      const std::span<const float> src = rows.row(i);
      std::copy(src.begin(), src.end(), dst.begin());
    }

    BatchBackend batch_backend;
    ScalarBackend scalar_backend;
    batch_backend.score(model, rows);
    scalar_backend.score(model, scalar_rows);
    for (std::size_t i = 0; i < 33; ++i) {
      const float a = rows.score(i);
      const float b = scalar_rows.score(i);
      // Both kernels accumulate in double; they differ only by summation
      // order, so the float results agree to a few ULP.
      EXPECT_NEAR(a, b, 1e-4f * (1.0f + std::abs(b)))
          << "seed " << seed << " row " << i;
    }
  }
}

TEST(BatchBackend, ScoresAreIndependentOfBatchComposition) {
  // The ScoringBackend contract: a row's score never depends on what else
  // shares its batch. This is what lets the runtime coalesce windows across
  // streams without perturbing per-stream results — so it must be bitwise,
  // not approximate.
  const std::size_t dim = 1536;
  const svm::LinearModel model = make_model(dim, 21);
  ScoreBatch all;
  all.configure(dim, 7);
  fill_rows(all, dim, 7, 22);
  BatchBackend backend;
  backend.score(model, all);

  for (std::size_t i = 0; i < 7; ++i) {
    ScoreBatch solo;
    solo.configure(dim, 1);
    const std::span<float> dst = solo.push(all.tag(i));
    const std::span<const float> src = all.row(i);
    std::copy(src.begin(), src.end(), dst.begin());
    backend.score(model, solo);
    EXPECT_EQ(solo.score(0), all.score(i)) << "row " << i;
  }
}

TEST(BackendBase, ScoreBatchFaultSiteThrowsBeforeTheKernel) {
  const std::size_t dim = 64;
  const svm::LinearModel model = make_model(dim, 30);
  ScoreBatch batch;
  batch.configure(dim, 2);
  fill_rows(batch, dim, 2, 31);

  BatchBackend backend;
  fault::ScopedPlan plan(fault::Plan{.seed = 5}.with("score.batch", 1.0));
  EXPECT_THROW(backend.score(model, batch), std::runtime_error);
  // The batch was never scored, and stats did not count the failed call.
  EXPECT_EQ(backend.stats().batches, 0);
}

// --- hwsim backend ----------------------------------------------------------

TEST(HwsimBackend, QuantizedScoresTrackFloatWithinTolerance) {
  const std::size_t dim = 2048;
  const svm::LinearModel model = make_model(dim, 41);
  ScoreBatch batch;
  batch.configure(dim, 16);
  fill_rows(batch, dim, 16, 42);

  hwsim::HwsimBackendOptions opts;
  opts.simulate_latency = false;
  hwsim::HwsimScoreBackend device(opts);
  EXPECT_EQ(device.kind(), BackendKind::kHwsim);
  device.score(model, batch);

  for (std::size_t i = 0; i < batch.size(); ++i) {
    const float want = model.decision(batch.row(i));
    // Q.14 features and weights: quantization error, not batch effects.
    EXPECT_NEAR(batch.score(i), want, 0.05f) << "row " << i;
  }
  // Modeled device time accrues even with the sleep off: one fill plus one
  // column cadence per window.
  EXPECT_GT(device.modeled_busy_seconds(), 0.0);
}

// --- ScoreHub ---------------------------------------------------------------

TEST(ScoreHub, PassThroughScoresMatchInnerBackendExactly) {
  const std::size_t dim = 512;
  const svm::LinearModel model = make_model(dim, 51);
  BatchBackend inner;
  ScoreHub hub(inner, /*lanes=*/2, /*max_pending=*/8);
  EXPECT_EQ(hub.kind(), BackendKind::kBatch);  // routing layer reports inner

  ScoreBatch via_hub;
  via_hub.configure(dim, 6);
  fill_rows(via_hub, dim, 6, 52);
  ScoreBatch direct;
  direct.configure(dim, 6);
  for (std::size_t i = 0; i < 6; ++i) {
    const std::span<float> dst = direct.push(via_hub.tag(i));
    const std::span<const float> src = via_hub.row(i);
    std::copy(src.begin(), src.end(), dst.begin());
  }

  hub.score(model, via_hub);
  BatchBackend reference;
  reference.score(model, direct);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(via_hub.score(i), direct.score(i));
  }
  const HubStats hs = hub.hub_stats();
  EXPECT_EQ(hs.requests, 1);
  EXPECT_EQ(hs.drained_batches, 1);
}

TEST(ScoreHub, SingleLaneCoalescesConcurrentSubmitters) {
  const std::size_t dim = 1024;
  const svm::LinearModel model = make_model(dim, 61);
  ScalarBackend inner;
  ScoreHub hub(inner, /*lanes=*/1, /*max_pending=*/16);

  constexpr int kThreads = 4;
  constexpr int kBatchesPerThread = 25;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ScoreBatch batch;
      for (int b = 0; b < kBatchesPerThread; ++b) {
        batch.configure(dim, 3);
        fill_rows(batch, dim, 3,
                  static_cast<std::uint64_t>(t) * 1000 + b);
        hub.score(model, batch);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          // Scores must be the submitter's own rows, untouched by whoever
          // drained the request.
          if (batch.score(i) != model.decision(batch.row(i))) {
            ++mismatches[static_cast<std::size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }

  const HubStats hs = hub.hub_stats();
  EXPECT_EQ(hs.requests, kThreads * kBatchesPerThread);
  EXPECT_EQ(hs.drained_batches, hs.requests);  // every batch scored once
  EXPECT_GE(hs.drains, 1);
  EXPECT_LE(hs.max_coalesced, kThreads * kBatchesPerThread);
  EXPECT_GE(hs.mean_coalesced(), 1.0);
  EXPECT_EQ(inner.stats().windows, hs.requests * 3);
}

// --- engine seam ------------------------------------------------------------

imgproc::ImageF make_frame(int width, int height, std::uint64_t seed) {
  util::Rng rng(seed);
  imgproc::ImageF img(width, height);
  for (float& p : img.pixels()) p = static_cast<float>(rng.uniform());
  return img;
}

TEST(EngineBackend, ScalarEngineBitIdenticalToFreeChain) {
  hog::HogParams params;
  const auto dim = static_cast<std::size_t>(params.descriptor_size());
  const svm::LinearModel model = make_model(dim, 71);
  const imgproc::ImageF frame = make_frame(192, 160, 72);
  detect::MultiscaleOptions ms;
  ms.scales = {1.0, 1.5, 2.0};
  ms.scan.threshold = -1.5f;  // low bar: plenty of raw windows to compare

  detect::DetectionEngine engine(
      detect::EngineOptions{.backend = BackendKind::kScalar});
  const detect::MultiscaleResult& got =
      engine.process(frame, params, model, ms);
  const detect::MultiscaleResult want =
      detect::detect_multiscale(frame, params, model, ms);
  ASSERT_EQ(got.raw.size(), want.raw.size());
  for (std::size_t i = 0; i < want.raw.size(); ++i) {
    EXPECT_EQ(got.raw[i].score, want.raw[i].score);  // bitwise, not "near"
    EXPECT_EQ(got.raw[i].x, want.raw[i].x);
    EXPECT_EQ(got.raw[i].y, want.raw[i].y);
  }
  EXPECT_EQ(engine.stats().backend, BackendKind::kScalar);
}

TEST(EngineBackend, BatchEngineSameBoxesAfterNmsBoundedUlpBefore) {
  hog::HogParams params;
  const auto dim = static_cast<std::size_t>(params.descriptor_size());
  for (const std::uint64_t seed : {81u, 82u, 83u}) {
    const svm::LinearModel model = make_model(dim, seed);
    const imgproc::ImageF frame = make_frame(192, 160, seed + 10);
    detect::MultiscaleOptions ms;
    ms.scales = {1.0, 1.5, 2.0};
    ms.scan.threshold = -1.0f;

    detect::DetectionEngine scalar_engine(
        detect::EngineOptions{.backend = BackendKind::kScalar});
    detect::DetectionEngine batch_engine(
        detect::EngineOptions{.backend = BackendKind::kBatch});
    const detect::MultiscaleResult a =
        scalar_engine.process(frame, params, model, ms);
    const detect::MultiscaleResult b =
        batch_engine.process(frame, params, model, ms);
    EXPECT_EQ(batch_engine.stats().backend, BackendKind::kBatch);

    // Raw windows: same set, scores within a few ULP.
    ASSERT_EQ(a.raw.size(), b.raw.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.raw.size(); ++i) {
      EXPECT_EQ(a.raw[i].x, b.raw[i].x);
      EXPECT_EQ(a.raw[i].y, b.raw[i].y);
      EXPECT_EQ(a.raw[i].scale, b.raw[i].scale);
      EXPECT_NEAR(a.raw[i].score, b.raw[i].score,
                  1e-4f * (1.0f + std::abs(a.raw[i].score)));
    }
    // Post-NMS boxes: identical.
    ASSERT_EQ(a.detections.size(), b.detections.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.detections.size(); ++i) {
      EXPECT_EQ(a.detections[i].x, b.detections[i].x);
      EXPECT_EQ(a.detections[i].y, b.detections[i].y);
      EXPECT_EQ(a.detections[i].width, b.detections[i].width);
      EXPECT_EQ(a.detections[i].height, b.detections[i].height);
    }
  }
}

// --- runtime seam -----------------------------------------------------------

runtime::ServerOptions server_options(BackendKind backend, int workers) {
  runtime::ServerOptions opts;
  opts.workers = workers;
  opts.queue_capacity = 8;
  opts.backpressure = runtime::BackpressurePolicy::kBlock;
  opts.scheduler.max_level = 0;  // lossless: these tests assert determinism
  opts.multiscale.scales = {1.0, 1.5, 2.0};
  opts.backend = backend;
  return opts;
}

TEST(RuntimeBackend, CrossStreamBatchingKeepsPerStreamResultsIdentical) {
  const runtime::ServerOptions opts =
      server_options(BackendKind::kBatch, /*workers=*/2);
  const auto dim = static_cast<std::size_t>(opts.hog.descriptor_size());
  const svm::LinearModel model = make_model(dim, 91);
  constexpr int kStreams = 4;
  constexpr int kFrames = 3;
  std::vector<imgproc::ImageF> frames;
  for (int i = 0; i < kFrames; ++i) {
    frames.push_back(make_frame(160, 160, 900 + static_cast<std::uint64_t>(i)));
  }

  // Reference: one engine, same backend, no hub, no concurrency.
  detect::DetectionEngine reference(
      detect::EngineOptions{.backend = BackendKind::kBatch});
  std::vector<std::vector<detect::Detection>> expected;
  for (const imgproc::ImageF& f : frames) {
    expected.push_back(
        reference.process(f, opts.hog, model, opts.multiscale).detections);
  }

  runtime::DetectionServer server(model, opts);
  ASSERT_NE(server.score_hub(), nullptr);
  std::vector<std::vector<std::vector<detect::Detection>>> got(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    auto& sink = got[static_cast<std::size_t>(s)];
    server.add_stream("cam" + std::to_string(s),
                      [&sink](const runtime::StreamResult& r) {
                        sink.push_back(r.detections);
                      });
  }
  server.start();
  for (int i = 0; i < kFrames; ++i) {
    for (int s = 0; s < kStreams; ++s) {
      ASSERT_EQ(server.submit(s, frames[static_cast<std::size_t>(i)]),
                runtime::SubmitStatus::kAccepted);
    }
  }
  server.drain();
  server.stop();

  for (int s = 0; s < kStreams; ++s) {
    const auto& sink = got[static_cast<std::size_t>(s)];
    ASSERT_EQ(sink.size(), static_cast<std::size_t>(kFrames));
    for (int i = 0; i < kFrames; ++i) {
      const auto& want = expected[static_cast<std::size_t>(i)];
      const auto& have = sink[static_cast<std::size_t>(i)];
      ASSERT_EQ(have.size(), want.size()) << "stream " << s << " frame " << i;
      for (std::size_t d = 0; d < want.size(); ++d) {
        EXPECT_EQ(have[d].x, want[d].x);
        EXPECT_EQ(have[d].y, want[d].y);
        EXPECT_EQ(have[d].score, want[d].score);  // hub never perturbs rows
      }
    }
  }

  const runtime::RuntimeStats stats = server.stats();
  EXPECT_EQ(stats.backend, BackendKind::kBatch);
  EXPECT_EQ(stats.submitted, kStreams * kFrames);
  EXPECT_EQ(stats.completed, kStreams * kFrames);
  EXPECT_EQ(stats.dropped_queue + stats.dropped_deadline + stats.errors, 0);
  EXPECT_GT(stats.score_batches, 0);
  EXPECT_GT(stats.score_windows, 0);
  EXPECT_GT(stats.score_fill, 0.0);
}

TEST(RuntimeBackend, HwsimDeviceServesAllStreamsThroughOneLane) {
  runtime::ServerOptions opts =
      server_options(BackendKind::kHwsim, /*workers=*/2);
  opts.multiscale.scales = {1.0, 2.0};
  const auto dim = static_cast<std::size_t>(opts.hog.descriptor_size());
  const svm::LinearModel model = make_model(dim, 101);

  runtime::DetectionServer server(model, opts);
  EXPECT_EQ(server.backend(), BackendKind::kHwsim);
  ASSERT_NE(server.score_hub(), nullptr);
  EXPECT_EQ(server.score_hub()->lanes(), 1u);  // one modeled device

  std::vector<int> delivered(2, 0);
  for (int s = 0; s < 2; ++s) {
    int* count = &delivered[static_cast<std::size_t>(s)];
    server.add_stream("cam" + std::to_string(s),
                      [count](const runtime::StreamResult& r) {
                        if (r.status == runtime::FrameStatus::kOk) ++*count;
                      });
  }
  server.start();
  const imgproc::ImageF frame = make_frame(160, 160, 102);
  constexpr int kFrames = 3;
  for (int i = 0; i < kFrames; ++i) {
    for (int s = 0; s < 2; ++s) {
      ASSERT_EQ(server.submit(s, frame), runtime::SubmitStatus::kAccepted);
    }
  }
  server.drain();
  // Health is sampled before stop(): stopping reads as kDraining by design.
  EXPECT_EQ(server.health(), runtime::HealthState::kHealthy);
  server.stop();

  EXPECT_EQ(delivered[0], kFrames);
  EXPECT_EQ(delivered[1], kFrames);
  const runtime::RuntimeStats stats = server.stats();
  EXPECT_EQ(stats.backend, BackendKind::kHwsim);
  EXPECT_EQ(stats.completed, 2 * kFrames);
}

TEST(RuntimeBackend, ScoreBatchChaosPoisonsFramesNotTheServer) {
  runtime::ServerOptions opts =
      server_options(BackendKind::kBatch, /*workers=*/2);
  opts.multiscale.scales = {1.0, 2.0};
  opts.recovery_frames = 2;
  const auto dim = static_cast<std::size_t>(opts.hog.descriptor_size());
  const svm::LinearModel model = make_model(dim, 111);

  runtime::DetectionServer server(model, opts);
  std::vector<std::uint64_t> sequences;
  std::vector<runtime::FrameStatus> statuses;
  server.add_stream("cam0", [&](const runtime::StreamResult& r) {
    sequences.push_back(r.sequence);
    statuses.push_back(r.status);
  });
  server.start();

  constexpr int kFrames = 10;
  const imgproc::ImageF frame = make_frame(160, 160, 112);
  {
    // Every 64-window batch check has a 30% chance to throw: with only a
    // handful of batches per 160x160 two-scale frame that faults several
    // frames while leaving others clean, exercising retry + poison without
    // killing every frame.
    fault::ScopedPlan plan(
        fault::Plan{.seed = 9}.with("score.batch", 0.3));
    for (int i = 0; i < kFrames; ++i) {
      ASSERT_EQ(server.submit(0, frame), runtime::SubmitStatus::kAccepted);
    }
    server.drain();
  }
  server.stop();

  // Exactly-once, in-order delivery holds through backend failures.
  ASSERT_EQ(sequences.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(sequences[static_cast<std::size_t>(i)],
              static_cast<std::uint64_t>(i));
  }
  const runtime::RuntimeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kFrames);
  EXPECT_EQ(stats.completed + stats.errors, kFrames);
  EXPECT_GT(stats.worker_faults, 0) << "chaos plan never fired";
  // Every kError delivery traces back to a contained fault (a poison frame,
  // or a faulted frame whose retry found the queue full); faults that were
  // retried successfully end as completed instead.
  EXPECT_LE(stats.errors, stats.worker_faults);
  EXPECT_LE(stats.poison_frames, stats.errors);
}

}  // namespace
}  // namespace pdet::score
