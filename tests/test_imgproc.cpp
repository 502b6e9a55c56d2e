// Unit tests for src/imgproc: containers, I/O, resampling, gradients, draw.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <string>

#include "src/imgproc/convert.hpp"
#include "src/imgproc/convolve.hpp"
#include "src/imgproc/draw.hpp"
#include "src/imgproc/gradient.hpp"
#include "src/imgproc/image.hpp"
#include "src/imgproc/image_io.hpp"
#include "src/imgproc/resize.hpp"
#include "src/util/rng.hpp"

namespace pdet::imgproc {
namespace {

TEST(Image, ConstructionAndFill) {
  ImageU8 img(4, 3, 7);
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.pixel_count(), 12u);
  for (const auto p : img.pixels()) EXPECT_EQ(p, 7);
  img.fill(9);
  EXPECT_EQ(img.at(3, 2), 9);
}

TEST(Image, EmptyDefault) {
  ImageF img;
  EXPECT_TRUE(img.empty());
  EXPECT_EQ(img.width(), 0);
}

TEST(Image, RowMajorAddressing) {
  ImageU8 img(3, 2, 0);
  img.at(2, 1) = 42;
  EXPECT_EQ(img.row(1)[2], 42);
  EXPECT_EQ(img.pixels()[5], 42);
}

TEST(Image, ClampedReads) {
  ImageU8 img(2, 2, 0);
  img.at(0, 0) = 1;
  img.at(1, 1) = 4;
  EXPECT_EQ(img.at_clamped(-5, -5), 1);
  EXPECT_EQ(img.at_clamped(10, 10), 4);
  EXPECT_EQ(img.at_clamped(0, 0), 1);
}

TEST(Image, CropCopiesRegion) {
  ImageU8 img(4, 4, 0);
  img.at(2, 1) = 5;
  const ImageU8 c = img.crop(1, 1, 2, 2);
  EXPECT_EQ(c.width(), 2);
  EXPECT_EQ(c.at(1, 0), 5);
}

TEST(Image, PasteWritesRegion) {
  ImageU8 dst(4, 4, 0);
  ImageU8 src(2, 2, 3);
  dst.paste(src, 1, 2);
  EXPECT_EQ(dst.at(1, 2), 3);
  EXPECT_EQ(dst.at(2, 3), 3);
  EXPECT_EQ(dst.at(0, 0), 0);
}

TEST(Image, EqualityComparesContents) {
  ImageU8 a(2, 2, 1);
  ImageU8 b(2, 2, 1);
  EXPECT_EQ(a, b);
  b.at(0, 0) = 2;
  EXPECT_FALSE(a == b);
}

TEST(Convert, U8FloatRoundtrip) {
  ImageU8 img(16, 1);
  for (int x = 0; x < 16; ++x) img.at(x, 0) = static_cast<std::uint8_t>(x * 17);
  const ImageU8 back = to_u8(to_float(img));
  EXPECT_EQ(img, back);
}

TEST(Convert, ToU8Clamps) {
  ImageF img(2, 1);
  img.at(0, 0) = -0.5f;
  img.at(1, 0) = 1.5f;
  const ImageU8 u = to_u8(img);
  EXPECT_EQ(u.at(0, 0), 0);
  EXPECT_EQ(u.at(1, 0), 255);
}

TEST(Convert, GammaSqrtBrightensMidtones) {
  ImageF img(1, 1, 0.25f);
  const ImageF g = gamma_correct(img, 0.5f);
  EXPECT_NEAR(g.at(0, 0), 0.5f, 1e-6f);
}

TEST(Convert, NormalizeRangeMapsToUnit) {
  ImageF img(3, 1);
  img.at(0, 0) = 2.0f;
  img.at(1, 0) = 4.0f;
  img.at(2, 0) = 6.0f;
  const ImageF n = normalize_range(img);
  EXPECT_FLOAT_EQ(n.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(n.at(1, 0), 0.5f);
  EXPECT_FLOAT_EQ(n.at(2, 0), 1.0f);
}

TEST(Convert, NormalizeRangeConstantImage) {
  ImageF img(2, 2, 3.0f);
  const ImageF n = normalize_range(img);
  for (const float v : n.pixels()) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(ImageIo, PgmRoundtrip) {
  ImageU8 img(5, 4);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 5; ++x) {
      img.at(x, y) = static_cast<std::uint8_t>(x * 50 + y);
    }
  }
  const std::string path = testing::TempDir() + "/pdet_io.pgm";
  ASSERT_TRUE(write_pgm(img, path));
  ImageU8 back;
  ASSERT_TRUE(read_pgm(path, back));
  EXPECT_EQ(img, back);
}

TEST(ImageIo, ReadAsciiPgmWithComments) {
  const std::string path = testing::TempDir() + "/pdet_ascii.pgm";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("P2\n# a comment\n2 2\n255\n0 64\n# mid comment\n128 255\n", f);
  std::fclose(f);
  ImageU8 img;
  ASSERT_TRUE(read_pgm(path, img));
  EXPECT_EQ(img.at(0, 0), 0);
  EXPECT_EQ(img.at(1, 0), 64);
  EXPECT_EQ(img.at(0, 1), 128);
  EXPECT_EQ(img.at(1, 1), 255);
}

TEST(ImageIo, MaxvalRescaled) {
  const std::string path = testing::TempDir() + "/pdet_maxval.pgm";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("P2\n1 1\n15\n15\n", f);
  std::fclose(f);
  ImageU8 img;
  ASSERT_TRUE(read_pgm(path, img));
  EXPECT_EQ(img.at(0, 0), 255);
}

TEST(ImageIo, RejectsGarbage) {
  const std::string path = testing::TempDir() + "/pdet_bad.pgm";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("NOTPGM", f);
  std::fclose(f);
  ImageU8 img(1, 1, 9);
  EXPECT_FALSE(read_pgm(path, img));
  EXPECT_EQ(img.at(0, 0), 9);  // untouched on failure
}

TEST(ImageIo, RejectsMissingFile) {
  ImageU8 img;
  EXPECT_FALSE(read_pgm("/nonexistent/nope.pgm", img));
}

TEST(ImageIo, PpmWriteProducesHeader) {
  RgbImage rgb(2, 2, {10, 20, 30});
  const std::string path = testing::TempDir() + "/pdet_rgb.ppm";
  ASSERT_TRUE(write_ppm(rgb, path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[16] = {};
  (void)std::fread(buf, 1, 2, f);
  std::fclose(f);
  EXPECT_EQ(buf[0], 'P');
  EXPECT_EQ(buf[1], '6');
}

TEST(ImageIo, ToRgbReplicatesChannels) {
  ImageU8 g(2, 1);
  g.at(0, 0) = 9;
  const RgbImage rgb = to_rgb(g);
  EXPECT_EQ(rgb.r.at(0, 0), 9);
  EXPECT_EQ(rgb.g.at(0, 0), 9);
  EXPECT_EQ(rgb.b.at(0, 0), 9);
}

class ResizeInterpTest : public testing::TestWithParam<Interp> {};

TEST_P(ResizeInterpTest, IdentityIsNoop) {
  ImageF img(8, 6);
  for (int y = 0; y < 6; ++y) {
    for (int x = 0; x < 8; ++x) img.at(x, y) = static_cast<float>(x * y) / 35.0f;
  }
  const ImageF out = resize(img, 8, 6, GetParam());
  EXPECT_EQ(out, img);
}

TEST_P(ResizeInterpTest, ConstantImageStaysConstant) {
  ImageF img(10, 7, 0.37f);
  const ImageF up = resize(img, 23, 15, GetParam());
  const ImageF down = resize(img, 4, 3, GetParam());
  for (const float v : up.pixels()) EXPECT_NEAR(v, 0.37f, 1e-5f);
  for (const float v : down.pixels()) EXPECT_NEAR(v, 0.37f, 1e-5f);
}

TEST_P(ResizeInterpTest, OutputDimensionsRespected) {
  ImageF img(9, 5, 0.0f);
  const ImageF out = resize(img, 13, 11, GetParam());
  EXPECT_EQ(out.width(), 13);
  EXPECT_EQ(out.height(), 11);
}

TEST_P(ResizeInterpTest, ValuesWithinInputHull) {
  // All four kernels except bicubic are convex-combination kernels; bicubic
  // can overshoot by its negative lobes, but never beyond ~15% of range.
  ImageF img(16, 16);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      img.at(x, y) = ((x / 4 + y / 4) % 2 == 0) ? 0.0f : 1.0f;
    }
  }
  const ImageF out = resize(img, 23, 9, GetParam());
  for (const float v : out.pixels()) {
    EXPECT_GE(v, -0.16f);
    EXPECT_LE(v, 1.16f);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, ResizeInterpTest,
                         testing::Values(Interp::kNearest, Interp::kBilinear,
                                         Interp::kBicubic, Interp::kArea));

TEST(Resize, BilinearPreservesLinearRamp) {
  ImageF img(9, 1);
  for (int x = 0; x < 9; ++x) img.at(x, 0) = static_cast<float>(x) / 8.0f;
  const ImageF out = resize(img, 17, 1, Interp::kBilinear);
  // Interior samples of a linear ramp must stay on the ramp.
  for (int x = 2; x < 15; ++x) {
    const float expected =
        (static_cast<float>((x + 0.5) * 9.0 / 17.0 - 0.5)) / 8.0f;
    EXPECT_NEAR(out.at(x, 0), expected, 1e-5f);
  }
}

TEST(Resize, AreaDownscaleAverages) {
  ImageF img(4, 4, 0.0f);
  img.at(0, 0) = img.at(1, 0) = img.at(0, 1) = img.at(1, 1) = 1.0f;
  const ImageF out = resize(img, 2, 2, Interp::kArea);
  EXPECT_NEAR(out.at(0, 0), 1.0f, 1e-6f);
  EXPECT_NEAR(out.at(1, 1), 0.0f, 1e-6f);
}

TEST(Resize, NearestPicksNearestSample) {
  ImageF img(2, 1);
  img.at(0, 0) = 0.0f;
  img.at(1, 0) = 1.0f;
  const ImageF out = resize(img, 4, 1, Interp::kNearest);
  EXPECT_FLOAT_EQ(out.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(2, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.at(3, 0), 1.0f);
}

TEST(Resize, ScaleFactorRounding) {
  ImageF img(10, 20, 0.0f);
  const ImageF half = resize_scale(img, 0.5, Interp::kBilinear);
  EXPECT_EQ(half.width(), 5);
  EXPECT_EQ(half.height(), 10);
  const ImageF up = resize_scale(img, 1.3, Interp::kBilinear);
  EXPECT_EQ(up.width(), 13);
  EXPECT_EQ(up.height(), 26);
}

TEST(Resize, U8PathMatchesFloatPath) {
  ImageU8 img(8, 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      img.at(x, y) = static_cast<std::uint8_t>((x * 31 + y * 7) % 256);
    }
  }
  const ImageU8 a = resize(img, 5, 5, Interp::kBilinear);
  const ImageU8 b = to_u8(resize(to_float(img), 5, 5, Interp::kBilinear));
  EXPECT_EQ(a, b);
}

TEST(Gradient, HorizontalRamp) {
  ImageF img(8, 4);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 8; ++x) img.at(x, y) = 0.1f * static_cast<float>(x);
  }
  const GradientField g = compute_gradients(img);
  // Interior: centered difference of a ramp = 2 * step.
  EXPECT_NEAR(g.fx.at(4, 2), 0.2f, 1e-5f);
  EXPECT_NEAR(g.fy.at(4, 2), 0.0f, 1e-6f);
  EXPECT_NEAR(g.magnitude.at(4, 2), 0.2f, 1e-5f);
  EXPECT_NEAR(g.angle.at(4, 2), 0.0f, 1e-5f);  // horizontal gradient
}

TEST(Gradient, VerticalRampAngle) {
  ImageF img(4, 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 4; ++x) img.at(x, y) = 0.1f * static_cast<float>(y);
  }
  const GradientField g = compute_gradients(img);
  constexpr float kHalfPi = std::numbers::pi_v<float> / 2.0f;
  EXPECT_NEAR(g.angle.at(2, 4), kHalfPi, 1e-5f);
}

TEST(Gradient, BorderReplicationHalvesEdgeGradient) {
  ImageF img(8, 1);
  for (int x = 0; x < 8; ++x) img.at(x, 0) = static_cast<float>(x);
  const GradientField g = compute_gradients(img);
  EXPECT_NEAR(g.fx.at(0, 0), 1.0f, 1e-6f);  // clamped left neighbor
  EXPECT_NEAR(g.fx.at(4, 0), 2.0f, 1e-6f);
}

TEST(Gradient, OperatorsAgreeOnLinearRamp) {
  // Every operator must recover the exact slope of a linear ramp interior.
  imgproc::ImageF img(10, 10);
  for (int y = 0; y < 10; ++y) {
    for (int x = 0; x < 10; ++x) {
      img.at(x, y) = 0.05f * static_cast<float>(x) + 0.02f * static_cast<float>(y);
    }
  }
  for (const auto op : {GradientOp::kCentered, GradientOp::kSobel,
                        GradientOp::kPrewitt}) {
    const GradientField g = compute_gradients(img, op);
    EXPECT_NEAR(g.fx.at(5, 5), 0.1f, 1e-5f) << static_cast<int>(op);
    EXPECT_NEAR(g.fy.at(5, 5), 0.04f, 1e-5f) << static_cast<int>(op);
  }
  // One-sided measures a single step, not the centered double step.
  const GradientField g1 = compute_gradients(img, GradientOp::kOneSided);
  EXPECT_NEAR(g1.fx.at(5, 5), 0.05f, 1e-5f);
}

TEST(Gradient, SobelSmoothsNoiseMoreThanCentered) {
  // On a noisy flat field, the 3x3 operators average out noise: their mean
  // magnitude must be below the centered difference's.
  util::Rng rng(5);
  imgproc::ImageF img(32, 32);
  for (float& p : img.pixels()) p = 0.5f + static_cast<float>(rng.normal(0, 0.1));
  auto mean_mag = [&](GradientOp op) {
    const GradientField g = compute_gradients(img, op);
    double s = 0.0;
    for (const float m : g.magnitude.pixels()) s += m;
    return s / static_cast<double>(g.magnitude.pixel_count());
  };
  EXPECT_LT(mean_mag(GradientOp::kSobel), mean_mag(GradientOp::kCentered));
}

TEST(Gradient, OrientationMatchesAtan2InEveryOctant) {
  // The polynomial arctangent against atan2 folded into [0, pi), over every
  // direction (both signs of both components, axes and diagonals included)
  // and over the pixels of a random frame.
  constexpr float kPi = std::numbers::pi_v<float>;
  const auto reference = [](float dx, float dy) {
    float a = std::atan2(dy, dx);
    if (a < 0.0f) a += kPi;
    return a >= kPi ? 0.0f : a;
  };
  const auto circular_error = [](float a, float b) {
    const float d = std::fabs(a - b);
    return std::min(d, std::fabs(d - kPi));
  };
  ImageF ring(3, 3, 0.0f);
  float worst = 0.0f;
  for (int k = 0; k < 4096; ++k) {
    const float phi = 2.0f * kPi * static_cast<float>(k) / 4096.0f;
    // Centered difference at (1, 1): dx = right - left, dy = below - above.
    ring.at(2, 1) = 0.5f * std::cos(phi);
    ring.at(0, 1) = -0.5f * std::cos(phi);
    ring.at(1, 2) = 0.5f * std::sin(phi);
    ring.at(1, 0) = -0.5f * std::sin(phi);
    const GradientField g = compute_gradients(ring);
    const float got = g.angle.at(1, 1);
    EXPECT_GE(got, 0.0f);
    EXPECT_LT(got, kPi);
    worst = std::max(worst, circular_error(got, reference(g.fx.at(1, 1),
                                                         g.fy.at(1, 1))));
  }
  util::Rng rng(9);
  ImageF img(256, 256);
  for (float& p : img.pixels()) p = static_cast<float>(rng.uniform());
  const GradientField g = compute_gradients(img);
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      const float got = g.angle.at(x, y);
      EXPECT_GE(got, 0.0f);
      EXPECT_LT(got, kPi);
      worst = std::max(worst, circular_error(got, reference(g.fx.at(x, y),
                                                           g.fy.at(x, y))));
    }
  }
  EXPECT_LT(worst, 1e-6f);
}

TEST(Gradient, NonFiniteGradientsCarryNoMagnitude) {
  ImageF img(8, 8, 0.25f);
  img.at(4, 4) = std::numeric_limits<float>::quiet_NaN();
  img.at(0, 0) = std::numeric_limits<float>::infinity();
  const GradientField g = compute_gradients(img);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      EXPECT_TRUE(std::isfinite(g.magnitude.at(x, y)));
      EXPECT_TRUE(std::isfinite(g.angle.at(x, y)));
    }
  }
  EXPECT_EQ(g.magnitude.at(4, 3), 0.0f);  // NaN above/below in its stencil
  EXPECT_EQ(g.magnitude.at(1, 0), 0.0f);  // infinity to its left
}

TEST(Convolve, GaussianKernelNormalizedAndSymmetric) {
  const Kernel1D k = gaussian_kernel(1.5);
  EXPECT_EQ(k.size() % 2, 1u);
  double sum = 0.0;
  for (const float v : k) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-6);
  for (std::size_t i = 0; i < k.size() / 2; ++i) {
    EXPECT_FLOAT_EQ(k[i], k[k.size() - 1 - i]);
  }
  // Center tap is the max.
  EXPECT_GE(k[k.size() / 2], k[0]);
}

TEST(Convolve, ImpulseResponseIsKernelOuterProduct) {
  ImageF img(9, 9, 0.0f);
  img.at(4, 4) = 1.0f;
  const Kernel1D k{0.25f, 0.5f, 0.25f};
  const ImageF out = separable_convolve(img, k, k);
  EXPECT_NEAR(out.at(4, 4), 0.25f, 1e-6f);
  EXPECT_NEAR(out.at(3, 4), 0.125f, 1e-6f);
  EXPECT_NEAR(out.at(3, 3), 0.0625f, 1e-6f);
  EXPECT_NEAR(out.at(6, 4), 0.0f, 1e-6f);
}

TEST(Convolve, ConstantImageInvariant) {
  ImageF img(12, 7, 0.42f);
  const ImageF out = gaussian_blur(img, 1.2);
  for (const float v : out.pixels()) EXPECT_NEAR(v, 0.42f, 1e-5f);
}

TEST(Convolve, BlurReducesVariance) {
  util::Rng rng(3);
  ImageF img(32, 32);
  for (float& p : img.pixels()) p = static_cast<float>(rng.uniform());
  const ImageF out = gaussian_blur(img, 1.0);
  auto variance = [](const ImageF& im) {
    double m = 0.0;
    for (const float v : im.pixels()) m += v;
    m /= static_cast<double>(im.pixel_count());
    double s = 0.0;
    for (const float v : im.pixels()) s += (v - m) * (v - m);
    return s / static_cast<double>(im.pixel_count());
  };
  EXPECT_LT(variance(out), variance(img) * 0.5);
}

TEST(Convolve, ZeroSigmaIsIdentity) {
  ImageF img(5, 5, 0.3f);
  img.at(2, 2) = 0.9f;
  EXPECT_EQ(gaussian_blur(img, 0.0), img);
}

TEST(Draw, RectOutline) {
  RgbImage canvas(10, 10, {0, 0, 0});
  draw_rect(canvas, 2, 2, 5, 4, {255, 0, 0});
  EXPECT_EQ(canvas.r.at(2, 2), 255);
  EXPECT_EQ(canvas.r.at(6, 2), 255);
  EXPECT_EQ(canvas.r.at(2, 5), 255);
  EXPECT_EQ(canvas.r.at(4, 3), 0);  // interior untouched
}

TEST(Draw, RectClipsOffCanvas) {
  RgbImage canvas(4, 4, {0, 0, 0});
  draw_rect(canvas, -2, -2, 10, 10, {0, 255, 0});
  // No crash; visible edge pixels unchanged since the outline is outside.
  EXPECT_EQ(canvas.g.at(1, 1), 0);
}

TEST(Draw, LineEndpoints) {
  RgbImage canvas(8, 8, {0, 0, 0});
  draw_line(canvas, 1, 1, 6, 4, {0, 0, 255});
  EXPECT_EQ(canvas.b.at(1, 1), 255);
  EXPECT_EQ(canvas.b.at(6, 4), 255);
}

TEST(Draw, TextRendersKnownGlyph) {
  RgbImage canvas(16, 8, {0, 0, 0});
  draw_text(canvas, 0, 0, "T", {255, 255, 255});
  // 'T': full top row, center column below.
  EXPECT_EQ(canvas.r.at(0, 0), 255);
  EXPECT_EQ(canvas.r.at(1, 0), 255);
  EXPECT_EQ(canvas.r.at(2, 0), 255);
  EXPECT_EQ(canvas.r.at(1, 4), 255);
  EXPECT_EQ(canvas.r.at(0, 4), 0);
}

TEST(Draw, TextLowercaseMapsToUppercase) {
  RgbImage a(16, 8, {0, 0, 0});
  RgbImage b(16, 8, {0, 0, 0});
  draw_text(a, 0, 0, "ab", {255, 255, 255});
  draw_text(b, 0, 0, "AB", {255, 255, 255});
  EXPECT_EQ(a.r, b.r);
}

}  // namespace
}  // namespace pdet::imgproc
