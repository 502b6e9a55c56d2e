// Unit tests for src/hog: cell histograms, block normalization, descriptors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <vector>

#include "src/hog/block_grid.hpp"
#include "src/hog/cell_grid.hpp"
#include "src/hog/descriptor.hpp"
#include "src/hog/visualize.hpp"
#include "src/imgproc/convolve.hpp"
#include "src/imgproc/gradient.hpp"
#include "src/util/rng.hpp"

namespace pdet::hog {
namespace {

constexpr float kPi = std::numbers::pi_v<float>;

HogParams default_params() {
  HogParams p;
  return p;
}

imgproc::ImageF random_image(int w, int h, std::uint64_t seed) {
  util::Rng rng(seed);
  imgproc::ImageF img(w, h);
  for (float& p : img.pixels()) p = static_cast<float>(rng.uniform());
  return img;
}

/// Image whose gradient is everywhere along `angle` (a sinusoidal grating).
imgproc::ImageF grating(int w, int h, float angle, float period = 8.0f) {
  imgproc::ImageF img(w, h);
  const float kx = std::cos(angle) * 2.0f * kPi / period;
  const float ky = std::sin(angle) * 2.0f * kPi / period;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      img.at(x, y) =
          0.5f + 0.5f * std::sin(kx * static_cast<float>(x) + ky * static_cast<float>(y));
    }
  }
  return img;
}

TEST(HogParams, PaperDefaults) {
  const HogParams p = default_params();
  EXPECT_EQ(p.cell_size, 8);
  EXPECT_EQ(p.bins, 9);
  EXPECT_EQ(p.cells_per_window_x(), 8);
  EXPECT_EQ(p.cells_per_window_y(), 16);
  EXPECT_EQ(p.block_feature_len(), 36);
  // Paper Section 5: "Each detection window is consisted of 16x8 blocks and
  // each of the blocks has the feature vector of 36 elements."
  EXPECT_EQ(p.blocks_per_window_x(), 8);
  EXPECT_EQ(p.blocks_per_window_y(), 16);
  EXPECT_EQ(p.descriptor_size(), 8 * 16 * 36);
}

TEST(HogParams, DalalLayoutDescriptorSize) {
  HogParams p = default_params();
  p.layout = DescriptorLayout::kDalalBlocks;
  // Dalal & Triggs: 7x15 blocks x 36 = 3780.
  EXPECT_EQ(p.blocks_per_window_x(), 7);
  EXPECT_EQ(p.blocks_per_window_y(), 15);
  EXPECT_EQ(p.descriptor_size(), 3780);
}

TEST(CellGrid, DimensionsDropPartialCells) {
  const HogParams p = default_params();
  const CellGrid g = compute_cell_grid(random_image(70, 130, 1), p);
  EXPECT_EQ(g.cells_x(), 8);   // 70/8
  EXPECT_EQ(g.cells_y(), 16);  // 130/8
  EXPECT_EQ(g.bins(), 9);
}

TEST(CellGrid, HistogramsNonNegative) {
  const HogParams p = default_params();
  const CellGrid g = compute_cell_grid(random_image(64, 64, 2), p);
  for (const float v : g.data()) EXPECT_GE(v, 0.0f);
}

TEST(CellGrid, ConstantImageHasZeroHistograms) {
  const HogParams p = default_params();
  const CellGrid g = compute_cell_grid(imgproc::ImageF(64, 64, 0.5f), p);
  for (const float v : g.data()) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(CellGrid, MassEqualsGradientMagnitudeWithoutSpatialInterp) {
  HogParams p = default_params();
  p.spatial_interp = false;
  const imgproc::ImageF img = random_image(32, 32, 3);
  const CellGrid g = compute_cell_grid(img, p);
  double hist_mass = 0.0;
  for (const float v : g.data()) hist_mass += v;
  const auto grad = imgproc::compute_gradients(img);
  double mag_mass = 0.0;
  for (const float v : grad.magnitude.pixels()) mag_mass += v;
  EXPECT_NEAR(hist_mass, mag_mass, mag_mass * 1e-5);
}

TEST(CellGrid, SpatialInterpOnlyLosesBorderMass) {
  HogParams p = default_params();
  const imgproc::ImageF img = random_image(32, 32, 3);
  p.spatial_interp = true;
  const CellGrid g = compute_cell_grid(img, p);
  double hist_mass = 0.0;
  for (const float v : g.data()) hist_mass += v;
  const auto grad = imgproc::compute_gradients(img);
  double mag_mass = 0.0;
  for (const float v : grad.magnitude.pixels()) mag_mass += v;
  EXPECT_LE(hist_mass, mag_mass * (1.0 + 1e-5));
  EXPECT_GE(hist_mass, mag_mass * 0.5);  // only border votes fall outside
}

class GratingBinTest : public testing::TestWithParam<int> {};

TEST_P(GratingBinTest, EnergyConcentratesInCorrectBin) {
  // A grating with gradient direction at the center of bin k must put the
  // plurality of histogram mass into bin k.
  const int bin = GetParam();
  HogParams p = default_params();
  const float angle = (static_cast<float>(bin) + 0.5f) * kPi / 9.0f;
  const CellGrid g = compute_cell_grid(grating(64, 64, angle), p);
  std::vector<double> per_bin(9, 0.0);
  for (int cy = 1; cy < g.cells_y() - 1; ++cy) {
    for (int cx = 1; cx < g.cells_x() - 1; ++cx) {
      const auto h = g.hist(cx, cy);
      for (int b = 0; b < 9; ++b) per_bin[static_cast<std::size_t>(b)] += h[static_cast<std::size_t>(b)];
    }
  }
  int argmax = 0;
  for (int b = 1; b < 9; ++b) {
    if (per_bin[static_cast<std::size_t>(b)] > per_bin[static_cast<std::size_t>(argmax)]) argmax = b;
  }
  EXPECT_EQ(argmax, bin);
}

INSTANTIATE_TEST_SUITE_P(AllBins, GratingBinTest, testing::Range(0, 9));

TEST(CellGrid, OrientationInterpSplitsBetweenBins) {
  HogParams p = default_params();
  p.spatial_interp = false;
  // Gradient exactly on the boundary between bins 0 and 1 (angle = pi/9).
  const CellGrid g = compute_cell_grid(grating(64, 64, kPi / 9.0f), p);
  double b0 = 0;
  double b1 = 0;
  double rest = 0;
  for (int cy = 1; cy < g.cells_y() - 1; ++cy) {
    for (int cx = 1; cx < g.cells_x() - 1; ++cx) {
      const auto h = g.hist(cx, cy);
      b0 += h[0];
      b1 += h[1];
      for (int b = 2; b < 9; ++b) rest += h[static_cast<std::size_t>(b)];
    }
  }
  // Roughly equal split between the two bracketing bins; little elsewhere.
  EXPECT_NEAR(b0 / (b0 + b1), 0.5, 0.1);
  EXPECT_LT(rest, (b0 + b1) * 0.25);
}

TEST(NormalizeBlock, L2ProducesUnitNorm) {
  HogParams p = default_params();
  p.norm = BlockNorm::kL2;
  std::vector<float> v(36, 0.0f);
  v[0] = 3.0f;
  v[1] = 4.0f;
  normalize_block(v, p);
  double sq = 0.0;
  for (const float x : v) sq += static_cast<double>(x) * x;
  EXPECT_NEAR(std::sqrt(sq), 1.0, 1e-3);
  EXPECT_NEAR(v[0], 0.6f, 1e-3f);
}

TEST(NormalizeBlock, L2HysClipsDominantComponents) {
  HogParams p = default_params();
  p.norm = BlockNorm::kL2Hys;
  std::vector<float> v(36, 0.01f);
  v[0] = 100.0f;  // would be ~1.0 after plain L2
  normalize_block(v, p);
  // After clipping at 0.2 and renormalizing, the dominant value sits near
  // the clip ceiling but cannot dwarf the rest as it would under plain L2.
  EXPECT_LE(v[0], 1.0f);
  EXPECT_GT(v[0], 0.2f);  // renormalization scales it back up a bit
  EXPECT_LT(v[0] / v[1], 100.0f / 0.01f);
}

TEST(NormalizeBlock, L1SumsToOne) {
  HogParams p = default_params();
  p.norm = BlockNorm::kL1;
  std::vector<float> v(36, 1.0f);
  normalize_block(v, p);
  double sum = 0.0;
  for (const float x : v) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-2);
}

TEST(NormalizeBlock, L1SqrtIsSqrtOfL1) {
  HogParams p = default_params();
  std::vector<float> a(36, 2.0f);
  std::vector<float> b(36, 2.0f);
  p.norm = BlockNorm::kL1;
  normalize_block(a, p);
  p.norm = BlockNorm::kL1Sqrt;
  normalize_block(b, p);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(b[i], std::sqrt(a[i]), 1e-5f);
  }
}

TEST(NormalizeBlock, ZeroBlockStaysFinite) {
  HogParams p = default_params();
  std::vector<float> v(36, 0.0f);
  normalize_block(v, p);
  for (const float x : v) {
    EXPECT_TRUE(std::isfinite(x));
    EXPECT_FLOAT_EQ(x, 0.0f);
  }
}

TEST(BlockGrid, DalalDimensions) {
  HogParams p = default_params();
  p.layout = DescriptorLayout::kDalalBlocks;
  const CellGrid cells = compute_cell_grid(random_image(80, 80, 5), p);
  const BlockGrid blocks = normalize_cells(cells, p);
  EXPECT_EQ(blocks.blocks_x(), cells.cells_x() - 1);
  EXPECT_EQ(blocks.blocks_y(), cells.cells_y() - 1);
  EXPECT_EQ(blocks.feature_len(), 36);
}

TEST(BlockGrid, CellGroupsDimensions) {
  const HogParams p = default_params();
  const CellGrid cells = compute_cell_grid(random_image(80, 80, 5), p);
  const BlockGrid blocks = normalize_cells(cells, p);
  EXPECT_EQ(blocks.blocks_x(), cells.cells_x());
  EXPECT_EQ(blocks.blocks_y(), cells.cells_y());
}

TEST(BlockGrid, CellGroupsMatchesDalalOnInteriorCells) {
  // Interior cell (cx, cy): its LU-group feature equals its 9-vector inside
  // Dalal block (cx, cy); its RB-group feature equals its 9-vector inside
  // Dalal block (cx-1, cy-1). Same normalization, different packaging.
  HogParams pg = default_params();
  HogParams pd = default_params();
  pd.layout = DescriptorLayout::kDalalBlocks;
  const imgproc::ImageF img = random_image(64, 64, 6);
  const CellGrid cells = compute_cell_grid(img, pg);
  const BlockGrid groups = normalize_cells(cells, pg);
  const BlockGrid dalal = normalize_cells(cells, pd);

  const int cx = 3;
  const int cy = 4;
  const auto feat = groups.block(cx, cy);
  // LU: cell is top-left of block (cx, cy) -> offset 0 in that block.
  const auto blk_lu = dalal.block(cx, cy);
  for (int b = 0; b < 9; ++b) {
    EXPECT_NEAR(feat[static_cast<std::size_t>(b)], blk_lu[static_cast<std::size_t>(b)], 1e-6f);
  }
  // RB: cell is bottom-right of block (cx-1, cy-1) -> offset 27.
  const auto blk_rb = dalal.block(cx - 1, cy - 1);
  for (int b = 0; b < 9; ++b) {
    EXPECT_NEAR(feat[static_cast<std::size_t>(27 + b)],
                blk_rb[static_cast<std::size_t>(27 + b)], 1e-6f);
  }
}

TEST(BlockGrid, FeaturesBoundedByL2HysCeiling) {
  const HogParams p = default_params();
  const CellGrid cells = compute_cell_grid(random_image(96, 96, 7), p);
  const BlockGrid blocks = normalize_cells(cells, p);
  for (const float v : blocks.data()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(Descriptor, WindowPositions) {
  const HogParams p = default_params();
  const CellGrid cells = compute_cell_grid(random_image(128, 160, 8), p);
  const BlockGrid blocks = normalize_cells(cells, p);
  // 16 cells wide, 20 tall: positions = 16-8+1 = 9 by 20-16+1 = 5.
  EXPECT_EQ(window_positions_x(blocks, p), 9);
  EXPECT_EQ(window_positions_y(blocks, p), 5);
}

TEST(Descriptor, TooSmallGridHasNoPositions) {
  const HogParams p = default_params();
  const CellGrid cells = compute_cell_grid(random_image(56, 64, 8), p);
  const BlockGrid blocks = normalize_cells(cells, p);
  EXPECT_EQ(window_positions_x(blocks, p), 0);
}

TEST(Descriptor, ExtractMatchesManualGather) {
  const HogParams p = default_params();
  const CellGrid cells = compute_cell_grid(random_image(128, 160, 9), p);
  const BlockGrid blocks = normalize_cells(cells, p);
  const auto desc = extract_window(blocks, p, 2, 1);
  ASSERT_EQ(desc.size(), static_cast<std::size_t>(p.descriptor_size()));
  // Block (i=3, j=5) of the window lives at grid (5, 6), flat index
  // (j*8 + i)*36.
  const auto direct = blocks.block(5, 6);
  const std::size_t off = (5u * 8u + 3u) * 36u;
  for (int k = 0; k < 36; ++k) {
    EXPECT_FLOAT_EQ(desc[off + static_cast<std::size_t>(k)], direct[static_cast<std::size_t>(k)]);
  }
}

TEST(Descriptor, WindowSizedImageConvenience) {
  const HogParams p = default_params();
  const imgproc::ImageF img = random_image(64, 128, 10);
  const auto desc = compute_window_descriptor(img, p);
  EXPECT_EQ(desc.size(), static_cast<std::size_t>(p.descriptor_size()));
}

TEST(Descriptor, LargerImageCenterCropped) {
  const HogParams p = default_params();
  imgproc::ImageF big(80, 144, 0.5f);
  const imgproc::ImageF center = random_image(64, 128, 11);
  big.paste(center, 8, 8);
  const auto desc_big = compute_window_descriptor(big, p);
  const auto desc_center = compute_window_descriptor(center, p);
  // Only border cells see different context (gradient clamping); interior
  // features identical. Compare a mid-window block.
  const std::size_t off = (8u * 8u + 4u) * 36u;
  for (int k = 0; k < 36; ++k) {
    EXPECT_NEAR(desc_big[off + static_cast<std::size_t>(k)],
                desc_center[off + static_cast<std::size_t>(k)], 1e-4f);
  }
}

// --- reference chain ------------------------------------------------------
// The plane-based chain the row-streaming kernel replaced, kept here as the
// oracle: full-frame gradient planes with std::atan2 folded by fmod, then a
// second pass casting up to eight votes per pixel straight into the grid.

float fold_unsigned(float angle_radians) {
  float a = std::fmod(angle_radians, kPi);
  if (a < 0.0f) a += kPi;
  // fmod can return exactly pi for inputs like -1e-8 after the correction.
  if (a >= kPi) a -= kPi;
  return a;
}

struct ReferenceGradients {
  imgproc::ImageF magnitude;
  imgproc::ImageF angle;
};

ReferenceGradients reference_gradients(const imgproc::ImageF& src,
                                       imgproc::GradientOp op) {
  using imgproc::GradientOp;
  const int w = src.width();
  const int h = src.height();
  ReferenceGradients g{imgproc::ImageF(w, h), imgproc::ImageF(w, h)};
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      float dx = 0.0f;
      float dy = 0.0f;
      switch (op) {
        case GradientOp::kCentered:
          dx = src.at_clamped(x + 1, y) - src.at_clamped(x - 1, y);
          dy = src.at_clamped(x, y + 1) - src.at_clamped(x, y - 1);
          break;
        case GradientOp::kOneSided:
          dx = src.at_clamped(x + 1, y) - src.at_clamped(x, y);
          dy = src.at_clamped(x, y + 1) - src.at_clamped(x, y);
          break;
        case GradientOp::kSobel:
        case GradientOp::kPrewitt: {
          const float c = op == GradientOp::kSobel ? 2.0f : 1.0f;
          const float inv = 1.0f / (2.0f + c);
          dx = inv * ((src.at_clamped(x + 1, y - 1) - src.at_clamped(x - 1, y - 1)) +
                      c * (src.at_clamped(x + 1, y) - src.at_clamped(x - 1, y)) +
                      (src.at_clamped(x + 1, y + 1) - src.at_clamped(x - 1, y + 1)));
          dy = inv * ((src.at_clamped(x - 1, y + 1) - src.at_clamped(x - 1, y - 1)) +
                      c * (src.at_clamped(x, y + 1) - src.at_clamped(x, y - 1)) +
                      (src.at_clamped(x + 1, y + 1) - src.at_clamped(x + 1, y - 1)));
          break;
        }
      }
      g.magnitude.at(x, y) = std::sqrt(dx * dx + dy * dy);
      g.angle.at(x, y) = fold_unsigned(std::atan2(dy, dx));
    }
  }
  return g;
}

/// Votes of `g` into a grid. With orientation_interp off, a pixel whose
/// angle lies within float rounding of a bin edge may land in either
/// neighbouring bin under any arctangent; `edge_cells` (if given) marks the
/// cells such pixels vote into.
CellGrid reference_votes(const ReferenceGradients& g, const HogParams& params,
                         std::vector<bool>* edge_cells = nullptr) {
  const int cell = params.cell_size;
  const int cells_x = g.magnitude.width() / cell;
  const int cells_y = g.magnitude.height() / cell;
  CellGrid grid(cells_x, cells_y, params.bins);
  if (edge_cells != nullptr) {
    edge_cells->assign(static_cast<std::size_t>(cells_x * cells_y), false);
  }
  const float bin_width = kPi / static_cast<float>(params.bins);
  const float inv_bin_width = 1.0f / bin_width;
  const float inv_cell = 1.0f / static_cast<float>(cell);
  for (int y = 0; y < cells_y * cell; ++y) {
    for (int x = 0; x < cells_x * cell; ++x) {
      const float mag = g.magnitude.at(x, y);
      if (mag == 0.0f) continue;
      const float angle = g.angle.at(x, y);
      int bin0;
      int bin1;
      float w1;
      bool edge = false;
      if (params.orientation_interp) {
        const float pos = angle * inv_bin_width - 0.5f;
        const float floor_pos = std::floor(pos);
        bin0 = static_cast<int>(floor_pos);
        w1 = pos - floor_pos;
        bin1 = bin0 + 1;
        if (bin0 < 0) bin0 += params.bins;
        if (bin1 >= params.bins) bin1 -= params.bins;
      } else {
        const float pos = angle * inv_bin_width;
        bin0 = std::min(static_cast<int>(pos), params.bins - 1);
        bin1 = bin0;
        w1 = 0.0f;
        // Angle exactly 0 (a horizontal gradient) is exact in any arctangent.
        edge = pos > 0.0f && std::fabs(pos - std::round(pos)) < 3e-6f;
      }
      auto vote_cell = [&](int cx, int cy, float weight) {
        if (cx < 0 || cx >= cells_x || cy < 0 || cy >= cells_y) return;
        if (edge && edge_cells != nullptr) {
          (*edge_cells)[static_cast<std::size_t>(cy * cells_x + cx)] = true;
        }
        auto h = grid.hist(cx, cy);
        h[static_cast<std::size_t>(bin0)] += weight * mag * (1.0f - w1);
        if (w1 > 0.0f) h[static_cast<std::size_t>(bin1)] += weight * mag * w1;
      };
      if (params.spatial_interp) {
        const float fx = (static_cast<float>(x) + 0.5f) * inv_cell - 0.5f;
        const float fy = (static_cast<float>(y) + 0.5f) * inv_cell - 0.5f;
        const int cx0 = static_cast<int>(std::floor(fx));
        const int cy0 = static_cast<int>(std::floor(fy));
        const float wx1 = fx - static_cast<float>(cx0);
        const float wy1 = fy - static_cast<float>(cy0);
        vote_cell(cx0, cy0, (1.0f - wx1) * (1.0f - wy1));
        vote_cell(cx0 + 1, cy0, wx1 * (1.0f - wy1));
        vote_cell(cx0, cy0 + 1, (1.0f - wx1) * wy1);
        vote_cell(cx0 + 1, cy0 + 1, wx1 * wy1);
      } else {
        vote_cell(x / cell, y / cell, 1.0f);
      }
    }
  }
  return grid;
}

/// Random frame pushed through a steep transfer curve: large flat regions
/// clipped at 0 and 1 with hard edges between them.
imgproc::ImageF saturated_image(int w, int h, std::uint64_t seed) {
  imgproc::ImageF img = random_image(w, h, seed);
  for (float& p : img.pixels()) p = std::clamp(3.0f * p - 1.0f, 0.0f, 1.0f);
  return img;
}

struct KernelCase {
  const char* name;
  imgproc::ImageF image;
};

TEST(CellGridKernel, MatchesPlaneReferenceChain) {
  using imgproc::GradientOp;
  std::vector<KernelCase> cases;
  cases.push_back({"random 70x130", random_image(70, 130, 31)});
  cases.push_back({"random 640x480", random_image(640, 480, 32)});
  cases.push_back({"random 1920x1072", random_image(1920, 1072, 33)});
  cases.push_back({"constant 320x240", imgproc::ImageF(320, 240, 0.5f)});
  cases.push_back({"saturated 320x240", saturated_image(320, 240, 34)});

  int compared_cells = 0;
  int edge_cells_skipped = 0;
  for (const KernelCase& c : cases) {
    for (const GradientOp op : {GradientOp::kCentered, GradientOp::kSobel,
                                GradientOp::kPrewitt, GradientOp::kOneSided}) {
      for (const float sigma : {0.0f, 1.0f}) {
        const ReferenceGradients ref_grad = reference_gradients(
            sigma > 0.0f ? imgproc::gaussian_blur(c.image, sigma) : c.image,
            op);
        for (const bool spatial : {true, false}) {
          for (const bool orientation : {true, false}) {
            HogParams p = default_params();
            p.gradient_op = op;
            p.presmooth_sigma = sigma;
            p.spatial_interp = spatial;
            p.orientation_interp = orientation;
            SCOPED_TRACE(testing::Message()
                         << c.name << " op " << static_cast<int>(op)
                         << " sigma " << sigma << " spatial " << spatial
                         << " orientation " << orientation);
            std::vector<bool> edge;
            const CellGrid want = reference_votes(ref_grad, p, &edge);
            const CellGrid got = compute_cell_grid(c.image, p);
            ASSERT_EQ(got.cells_x(), want.cells_x());
            ASSERT_EQ(got.cells_y(), want.cells_y());
            float max_bin = 0.0f;
            for (const float v : want.data()) max_bin = std::max(max_bin, v);
            const float tol = 1e-5f * max_bin;
            for (int cy = 0; cy < want.cells_y(); ++cy) {
              for (int cx = 0; cx < want.cells_x(); ++cx) {
                if (edge[static_cast<std::size_t>(cy * want.cells_x() + cx)]) {
                  ++edge_cells_skipped;
                  continue;
                }
                ++compared_cells;
                const auto a = got.hist(cx, cy);
                const auto b = want.hist(cx, cy);
                for (std::size_t k = 0; k < a.size(); ++k) {
                  ASSERT_LE(std::fabs(a[k] - b[k]), tol)
                      << "cell " << cx << "," << cy << " bin " << k
                      << " max bin " << max_bin;
                }
              }
            }
          }
        }
      }
    }
  }
  // Edge-of-bin pixels are a rounding-level rarity, not a loophole.
  EXPECT_LT(edge_cells_skipped, compared_cells / 100);
}

/// Frame with one non-finite pixel at (x, y).
imgproc::ImageF with_bad_pixel(imgproc::ImageF img, int x, int y, float v) {
  img.at(x, y) = v;
  return img;
}

TEST(CellGridKernel, NonFinitePixelsCastNoVote) {
  using imgproc::GradientOp;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const imgproc::ImageF clean = random_image(320, 240, 41);
  for (const GradientOp op : {GradientOp::kCentered, GradientOp::kSobel,
                              GradientOp::kPrewitt, GradientOp::kOneSided}) {
    for (const bool orientation : {true, false}) {
      HogParams p = default_params();
      p.gradient_op = op;
      p.orientation_interp = orientation;
      const CellGrid want = compute_cell_grid(clean, p);
      for (const float bad : {std::numeric_limits<float>::quiet_NaN(), kInf,
                              -kInf, std::numeric_limits<float>::max()}) {
        for (const auto& [px, py] :
             {std::pair{161, 117}, std::pair{0, 0}, std::pair{319, 239},
              std::pair{8, 239}}) {
          SCOPED_TRACE(testing::Message() << "op " << static_cast<int>(op)
                                          << " value " << bad << " at " << px
                                          << "," << py);
          const CellGrid got =
              compute_cell_grid(with_bad_pixel(clean, px, py, bad), p);
          const int bx = px / p.cell_size;
          const int by = py / p.cell_size;
          for (int cy = 0; cy < got.cells_y(); ++cy) {
            for (int cx = 0; cx < got.cells_x(); ++cx) {
              const auto a = got.hist(cx, cy);
              for (const float v : a) ASSERT_TRUE(std::isfinite(v));
              if (std::abs(cx - bx) <= 1 && std::abs(cy - by) <= 1) continue;
              const auto b = want.hist(cx, cy);
              for (std::size_t k = 0; k < a.size(); ++k) {
                ASSERT_EQ(a[k], b[k]) << "cell " << cx << "," << cy;
              }
            }
          }
        }
      }
    }
  }
}

TEST(CellGridKernel, AllNonFiniteFrameGivesEmptyHistograms) {
  const HogParams p = default_params();
  const CellGrid g = compute_cell_grid(
      imgproc::ImageF(64, 64, std::numeric_limits<float>::quiet_NaN()), p);
  for (const float v : g.data()) EXPECT_EQ(v, 0.0f);
}

TEST(CellGridKernel, ScratchShrinksToOneRow) {
  const HogParams p = default_params();
  const imgproc::ImageF img = random_image(256, 192, 42);
  imgproc::GradientField scratch;
  CellGrid grid;
  compute_cell_grid_into(img, p, scratch, grid);
  EXPECT_EQ(scratch.magnitude.height(), 1);
  EXPECT_EQ(scratch.angle.height(), 1);
  EXPECT_EQ(scratch.fx.height(), 1);
  EXPECT_EQ(scratch.fy.height(), 1);
  const std::size_t warm = scratch.magnitude.capacity_bytes() +
                           scratch.angle.capacity_bytes() +
                           scratch.fx.capacity_bytes() +
                           scratch.fy.capacity_bytes();
  EXPECT_LE(warm, 16u * 256u + 4u * 34u * 9u);  // rows, never planes
  EXPECT_EQ(grid.data().size(), compute_cell_grid(img, p).data().size());
}

TEST(Descriptor, DeterministicAcrossCalls) {
  const HogParams p = default_params();
  const imgproc::ImageF img = random_image(64, 128, 12);
  EXPECT_EQ(compute_window_descriptor(img, p), compute_window_descriptor(img, p));
}

TEST(Glyphs, DimensionsAndRange) {
  const HogParams p = default_params();
  const CellGrid g = compute_cell_grid(random_image(64, 128, 20), p);
  const imgproc::ImageF glyphs = render_hog_glyphs(g);
  EXPECT_EQ(glyphs.width(), g.cells_x() * 16);
  EXPECT_EQ(glyphs.height(), g.cells_y() * 16);
  for (const float v : glyphs.pixels()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(Glyphs, VerticalEdgeDrawsVerticalStick) {
  // A vertical-edge grating (horizontal gradient, bin ~0) must render
  // sticks along the EDGE direction, i.e. vertical: energy on the cell's
  // vertical midline exceeds the horizontal midline.
  const HogParams p = default_params();
  const CellGrid g = compute_cell_grid(grating(64, 64, 0.0f), p);
  GlyphOptions opts;
  opts.cell_pixels = 17;  // odd: exact midline
  const imgproc::ImageF glyphs = render_hog_glyphs(g, opts);
  double vertical = 0.0;
  double horizontal = 0.0;
  const int c = 3 * 17 + 8;  // center of cell (3, 3)
  for (int d = -6; d <= 6; ++d) {
    vertical += glyphs.at(c, c + d);
    horizontal += glyphs.at(c + d, c);
  }
  EXPECT_GT(vertical, horizontal * 1.5);
}

TEST(Glyphs, EmptyGridRendersBlack) {
  CellGrid g(4, 4, 9);
  const imgproc::ImageF glyphs = render_hog_glyphs(g);
  for (const float v : glyphs.pixels()) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Presmooth, SigmaBlursAwayFineGradients) {
  HogParams sharp = default_params();
  HogParams smooth = default_params();
  smooth.presmooth_sigma = 2.0f;
  const imgproc::ImageF img = random_image(64, 64, 21);
  const CellGrid g_sharp = compute_cell_grid(img, sharp);
  const CellGrid g_smooth = compute_cell_grid(img, smooth);
  double mass_sharp = 0.0;
  double mass_smooth = 0.0;
  for (const float v : g_sharp.data()) mass_sharp += v;
  for (const float v : g_smooth.data()) mass_smooth += v;
  EXPECT_LT(mass_smooth, mass_sharp * 0.6);
}

}  // namespace
}  // namespace pdet::hog
