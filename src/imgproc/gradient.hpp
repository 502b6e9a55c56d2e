// Image gradients for HOG (paper Eq. 1-2).
//
// Dalal & Triggs found the plain centered [-1 0 1] mask (no smoothing) to be
// the best-performing gradient operator for HOG; the paper's hardware uses
// the same. Orientation is *unsigned*: theta is folded into [0, pi).
//
// Every gradient in pdet comes from one row pass, `gradient_row`: the
// full-plane `compute_gradients_into` stores its rows, and hog's cell-grid
// kernel streams them straight into histograms without keeping a plane (the
// accelerator's line-buffer dataflow). Orientation is a branch-free
// polynomial arctangent (max error ~2e-7 rad against atan2), not std::atan2.
#pragma once

#include "src/imgproc/image.hpp"

namespace pdet::imgproc {

/// Derivative operator. Dalal & Triggs tested several and found the plain
/// centered difference best for HOG; the others are provided for the
/// ablation bench that reproduces that comparison.
enum class GradientOp {
  kCentered,  ///< [-1 0 1] (default, and what the paper's RTL computes)
  kSobel,     ///< 3x3 Sobel
  kPrewitt,   ///< 3x3 Prewitt
  kOneSided,  ///< forward difference [-1 1]
};

struct GradientField {
  ImageF fx;         ///< horizontal gradient f_x(x, y)
  ImageF fy;         ///< vertical gradient f_y(x, y)
  ImageF magnitude;  ///< m(x, y) = sqrt(fx^2 + fy^2)      (paper Eq. 1)
  ImageF angle;      ///< theta(x, y) = atan2 folded to [0, pi)  (paper Eq. 2)
};

/// Gradients with border replication using the selected operator.
GradientField compute_gradients(const ImageF& src,
                                GradientOp op = GradientOp::kCentered);

/// `compute_gradients` into a caller-owned field: every plane is re-shaped
/// in place and storage is never released, so a warm GradientField incurs no
/// allocation (the DetectionEngine workspace path).
void compute_gradients_into(const ImageF& src, GradientOp op,
                            GradientField& out);

/// Row `y` of the gradient field of `src` (borders replicated): magnitude
/// and unsigned orientation into two buffers of src.width() floats — the
/// same values compute_gradients_into stores. A pixel whose magnitude is not
/// finite (a NaN or infinite pixel in its stencil, or an overflowing square)
/// gets magnitude 0 and orientation 0, so it can never cast a histogram
/// vote; orientations always lie in [0, pi).
void gradient_row(const ImageF& src, int y, GradientOp op, float* magnitude,
                  float* angle);

}  // namespace pdet::imgproc
