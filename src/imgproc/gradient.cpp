#include "src/imgproc/gradient.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace pdet::imgproc {
namespace {

constexpr float kPi = std::numbers::pi_v<float>;

/// Magnitude and unsigned orientation of one gradient, branch-free.
///
/// atan(lo / hi) of the absolute components, reduced to |u| <= tan(pi/8)
/// through atan(t) = pi/4 + atan((t - 1) / (t + 1)) with one division, then
/// the Cephes single-precision atanf polynomial; the octant and the
/// unsigned fold follow from the component magnitudes and signs. Each
/// data-dependent choice is a 0/1 factor, not a branch: a gradient's octant
/// is as unpredictable as the image.
inline void polar(float dx, float dy, float& magnitude, float& angle) {
  constexpr float kTanPi8 = 0.41421356f;
  const float mag = std::sqrt(dx * dx + dy * dy);
  const float ax = std::fabs(dx);
  const float ay = std::fabs(dy);
  const float hi = std::max(ax, ay);
  const float lo = std::min(ax, ay);
  const float upper = static_cast<float>(lo > kTanPi8 * hi);
  const float u = (lo - upper * hi) /
                  std::max(hi + upper * lo,
                           std::numeric_limits<float>::denorm_min());
  const float z = u * u;
  float a = (((8.05374449538e-2f * z - 1.38776856032e-1f) * z +
              1.99777106478e-1f) * z - 3.33329491539e-1f) * z * u + u;
  a += upper * (kPi / 4.0f);  // atan(lo / hi), [0, pi/4]
  // atan(|dy| / |dx|), [0, pi/2]: pi/2 - a when |dy| is the larger.
  a = std::fabs(static_cast<float>(ay > ax) * (kPi / 2.0f) - a);
  // Opposite-signed components (quadrants II and IV) mirror to pi - a; a
  // mirror that rounds up to pi folds to 0.
  const bool mirror = ((dx < 0.0f) & (dy > 0.0f)) | ((dx > 0.0f) & (dy < 0.0f));
  a = std::fabs(static_cast<float>(mirror) * kPi - a);
  a -= static_cast<float>(a >= kPi) * kPi;
  if (!(mag <= std::numeric_limits<float>::max())) {  // NaN, inf: no vote
    magnitude = 0.0f;
    angle = 0.0f;
    return;
  }
  magnitude = mag;
  angle = a;
}

template <GradientOp kOp>
inline void stencil(const float* up, const float* mid, const float* down,
                    int xl, int x, int xr, float& dx, float& dy) {
  if constexpr (kOp == GradientOp::kCentered) {
    dx = mid[xr] - mid[xl];
    dy = down[x] - up[x];
  } else if constexpr (kOp == GradientOp::kOneSided) {
    dx = mid[xr] - mid[x];
    dy = down[x] - mid[x];
  } else {
    // Center-row weight 2 for Sobel, 1 for Prewitt; normalized by the
    // kernel weight sum so magnitudes stay comparable to kCentered.
    constexpr float c = kOp == GradientOp::kSobel ? 2.0f : 1.0f;
    constexpr float inv = 1.0f / (2.0f + c);
    dx = inv * ((up[xr] - up[xl]) + c * (mid[xr] - mid[xl]) +
                (down[xr] - down[xl]));
    dy = inv * ((down[xl] - up[xl]) + c * (down[x] - up[x]) +
                (down[xr] - up[xr]));
  }
}

template <GradientOp kOp, bool kStoreComponents>
void row_pass(const ImageF& src, int y, float* magnitude, float* angle,
              float* out_dx, float* out_dy) {
  const int w = src.width();
  const int h = src.height();
  const float* up = src.row(std::max(y - 1, 0));
  const float* mid = src.row(y);
  const float* down = src.row(std::min(y + 1, h - 1));
  const auto pixel = [&](int xl, int x, int xr) {
    float dx;
    float dy;
    stencil<kOp>(up, mid, down, xl, x, xr, dx, dy);
    if constexpr (kStoreComponents) {
      out_dx[x] = dx;
      out_dy[x] = dy;
    }
    polar(dx, dy, magnitude[x], angle[x]);
  };
  // Border columns replicate their edge pixel; the interior needs no clamp.
  pixel(0, 0, std::min(1, w - 1));
  for (int x = 1; x < w - 1; ++x) pixel(x - 1, x, x + 1);
  if (w > 1) pixel(w - 2, w - 1, w - 1);
}

template <bool kStoreComponents>
void dispatch_row(const ImageF& src, int y, GradientOp op, float* magnitude,
                  float* angle, float* dx, float* dy) {
  switch (op) {
    case GradientOp::kCentered:
      return row_pass<GradientOp::kCentered, kStoreComponents>(
          src, y, magnitude, angle, dx, dy);
    case GradientOp::kSobel:
      return row_pass<GradientOp::kSobel, kStoreComponents>(
          src, y, magnitude, angle, dx, dy);
    case GradientOp::kPrewitt:
      return row_pass<GradientOp::kPrewitt, kStoreComponents>(
          src, y, magnitude, angle, dx, dy);
    case GradientOp::kOneSided:
      return row_pass<GradientOp::kOneSided, kStoreComponents>(
          src, y, magnitude, angle, dx, dy);
  }
}

}  // namespace

void gradient_row(const ImageF& src, int y, GradientOp op, float* magnitude,
                  float* angle) {
  PDET_ASSERT(!src.empty() && y >= 0 && y < src.height());
  dispatch_row<false>(src, y, op, magnitude, angle, nullptr, nullptr);
}

GradientField compute_gradients(const ImageF& src, GradientOp op) {
  GradientField g;
  compute_gradients_into(src, op, g);
  return g;
}

void compute_gradients_into(const ImageF& src, GradientOp op,
                            GradientField& g) {
  PDET_TRACE_SCOPE("imgproc/gradient");
  PDET_REQUIRE(!src.empty());
  const int w = src.width();
  const int h = src.height();
  obs::counter_add("imgproc.gradient_pixels",
                   static_cast<long long>(w) * static_cast<long long>(h));
  g.fx.reset(w, h);
  g.fy.reset(w, h);
  g.magnitude.reset(w, h);
  g.angle.reset(w, h);
  for (int y = 0; y < h; ++y) {
    dispatch_row<true>(src, y, op, g.magnitude.row(y), g.angle.row(y),
                       g.fx.row(y), g.fy.row(y));
  }
}

}  // namespace pdet::imgproc
