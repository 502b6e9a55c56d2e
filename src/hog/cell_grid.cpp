#include "src/hog/cell_grid.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "src/imgproc/convolve.hpp"
#include "src/imgproc/gradient.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/strings.hpp"

namespace pdet::hog {

void require_frame_alignment(int width, int height, const HogParams& params) {
  if (width % params.cell_size != 0 || height % params.cell_size != 0) {
    throw std::invalid_argument(util::format(
        "frame %dx%d is not a multiple of the HOG cell size %d "
        "(trailing partial cells would be silently dropped); pad or crop "
        "the frame to %dx%d",
        width, height, params.cell_size,
        width - width % params.cell_size,
        height - height % params.cell_size));
  }
}

CellGrid::CellGrid(int cells_x, int cells_y, int bins)
    : cells_x_(cells_x),
      cells_y_(cells_y),
      bins_(bins),
      data_(static_cast<std::size_t>(cells_x) * static_cast<std::size_t>(cells_y) *
                static_cast<std::size_t>(bins),
            0.0f) {
  PDET_REQUIRE(cells_x >= 0 && cells_y >= 0 && bins >= 1);
}

std::span<float> CellGrid::hist(int cx, int cy) {
  PDET_ASSERT(cx >= 0 && cx < cells_x_ && cy >= 0 && cy < cells_y_);
  const std::size_t offset =
      (static_cast<std::size_t>(cy) * static_cast<std::size_t>(cells_x_) +
       static_cast<std::size_t>(cx)) *
      static_cast<std::size_t>(bins_);
  return std::span<float>(data_).subspan(offset, static_cast<std::size_t>(bins_));
}

std::span<const float> CellGrid::hist(int cx, int cy) const {
  PDET_ASSERT(cx >= 0 && cx < cells_x_ && cy >= 0 && cy < cells_y_);
  const std::size_t offset =
      (static_cast<std::size_t>(cy) * static_cast<std::size_t>(cells_x_) +
       static_cast<std::size_t>(cx)) *
      static_cast<std::size_t>(bins_);
  return std::span<const float>(data_).subspan(offset,
                                               static_cast<std::size_t>(bins_));
}

void CellGrid::reset(int cells_x, int cells_y, int bins) {
  PDET_REQUIRE(cells_x >= 0 && cells_y >= 0 && bins >= 1);
  cells_x_ = cells_x;
  cells_y_ = cells_y;
  bins_ = bins;
  data_.resize(static_cast<std::size_t>(cells_x) *
               static_cast<std::size_t>(cells_y) *
               static_cast<std::size_t>(bins));
  std::fill(data_.begin(), data_.end(), 0.0f);
}

CellGrid compute_cell_grid(const imgproc::ImageF& image,
                           const HogParams& params) {
  CellGrid grid;
  imgproc::GradientField grad;
  compute_cell_grid_into(image, params, grad, grid);
  return grid;
}

namespace {

/// Bilinear split of pixel offset `r` within its cell between the nearest
/// cell centre at or before the pixel and the one after it: the weight of
/// the later centre. Offsets below `split` sit before their own cell's
/// centre, so their earlier centre is the previous cell's. A pure function
/// of the offset, so every cell (and every tile crop at a cell-aligned
/// origin) sees the same weights.
float later_center_weight(int r, int split, float inv_cell) {
  const float f = (static_cast<float>(r) + 0.5f) * inv_cell;
  return r < split ? f + 0.5f : f - 0.5f;
}

/// dst[i] += weight * src[i] over one cell row of histograms.
void add_scaled(float* dst, const float* src, std::size_t n, float weight) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += weight * src[i];
}

}  // namespace

void compute_cell_grid_into(const imgproc::ImageF& image,
                            const HogParams& params,
                            imgproc::GradientField& row,
                            CellGrid& grid) {
  PDET_TRACE_SCOPE("hog/cell_grid");
  params.validate();
  PDET_REQUIRE(!image.empty());
  obs::counter_add("hog.cell_grids");
  obs::counter_add("imgproc.gradient_pixels",
                   static_cast<long long>(image.width()) *
                       static_cast<long long>(image.height()));

  const int cell = params.cell_size;
  const int bins = params.bins;
  const int cells_x = image.width() / cell;
  const int cells_y = image.height() / cell;
  grid.reset(cells_x, cells_y, bins);
  if (cells_x == 0 || cells_y == 0) return;

  imgproc::ImageF smoothed;
  const imgproc::ImageF* src = &image;
  if (params.presmooth_sigma > 0.0f) {
    smoothed = imgproc::gaussian_blur(image, params.presmooth_sigma);
    src = &smoothed;
  }

  // Trailing partial cells are dropped, as the streaming hardware does.
  const int width = cells_x * cell;
  const int height = cells_y * cell;
  const std::size_t stride = static_cast<std::size_t>(bins);
  const std::size_t row_floats = static_cast<std::size_t>(cells_x) * stride;

  // Row scratch: the current row's polar gradients, one cell row of votes
  // (cells -1 .. cells_x, so edge pixels need no bounds test) and the
  // per-column weight of each pixel's later cell. Nothing is frame-sized.
  row.magnitude.reset(src->width(), 1);
  row.angle.reset(src->width(), 1);
  row.fx.reset((cells_x + 2) * bins, 1);
  row.fy.reset(width, 1);
  float* const mag = row.magnitude.row(0);
  float* const ang = row.angle.row(0);
  float* const votes = row.fx.row(0);
  float* const later_weight = row.fy.row(0);

  // Without spatial interpolation every pixel votes its own cell alone:
  // split 0 makes the "earlier" cell the pixel's own, at weight 1.
  const int split = params.spatial_interp ? cell / 2 : 0;
  const float inv_cell = 1.0f / static_cast<float>(cell);
  for (int x = 0; x < width; ++x) {
    later_weight[x] = params.spatial_interp
                          ? later_center_weight(x % cell, split, inv_cell)
                          : 0.0f;
  }

  constexpr float kPi = std::numbers::pi_v<float>;
  const float inv_bin_width = static_cast<float>(bins) / kPi;
  const float bins_f = static_cast<float>(bins);
  const bool orientation_interp = params.orientation_interp;

  for (int y = 0; y < height; ++y) {
    imgproc::gradient_row(*src, y, params.gradient_op, mag, ang);
    std::fill(votes, votes + row.fx.pixel_count(), 0.0f);

    for (int cx = 0; cx < cells_x; ++cx) {
      const int x0 = cx * cell;
      for (int r = 0; r < cell; ++r) {
        const int x = x0 + r;
        // Orientation vote: split between the two bins whose centres
        // bracket the angle (bin centre i sits at (i + 0.5) * bin width),
        // wrapping because orientation is unsigned. The position is clamped
        // before the cast, so every index lands in [0, bins) whatever the
        // pixel values (non-finite pixels already carry magnitude 0).
        float pos = ang[x] * inv_bin_width;
        int bin0;
        int bin1;
        float w1;
        if (orientation_interp) {
          pos += 0.5f;  // one bin up: truncation below is then a floor
          pos = pos > 0.0f ? pos : 0.0f;
          pos = pos < bins_f + 0.5f ? pos : bins_f + 0.5f;
          const int upper = static_cast<int>(pos);
          w1 = pos - static_cast<float>(upper);
          bin0 = upper == 0 ? bins - 1 : upper - 1;
          bin1 = upper == bins ? 0 : upper;
        } else {
          pos = pos > 0.0f ? pos : 0.0f;
          pos = pos < bins_f ? pos : bins_f;
          bin0 = std::min(static_cast<int>(pos), bins - 1);
          bin1 = bin0;
          w1 = 0.0f;
        }
        const float m1 = mag[x] * w1;
        const float m0 = mag[x] - m1;
        const float wl = later_weight[x];
        const float we = 1.0f - wl;
        // votes cell k+1 holds grid column k; the earlier cell is cx - 1
        // below the split, cx from it on.
        float* const earlier =
            votes + static_cast<std::size_t>(r < split ? cx : cx + 1) * stride;
        float* const later = earlier + stride;
        earlier[bin0] += we * m0;
        earlier[bin1] += we * m1;
        later[bin0] += wl * m0;
        later[bin1] += wl * m1;
      }
    }

    // The row's votes land in its two nearest cell rows, weighted by
    // distance to their centres (only its own row without interpolation).
    const int q = y / cell;
    const int ry = y - q * cell;
    const float wy_later = params.spatial_interp
                               ? later_center_weight(ry, split, inv_cell)
                               : 0.0f;
    const int cy_earlier = ry < split ? q - 1 : q;
    float* const hist_rows = grid.data().data();
    if (cy_earlier >= 0) {
      add_scaled(hist_rows + static_cast<std::size_t>(cy_earlier) * row_floats,
                 votes + stride, row_floats, 1.0f - wy_later);
    }
    if (wy_later > 0.0f && cy_earlier + 1 < cells_y) {
      add_scaled(
          hist_rows + static_cast<std::size_t>(cy_earlier + 1) * row_floats,
          votes + stride, row_floats, wy_later);
    }
  }
}

}  // namespace pdet::hog
