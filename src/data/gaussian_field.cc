#include "data/gaussian_field.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/random.h"

namespace srp {
namespace {

/// One value-noise octave: a coarse random lattice sampled with bilinear
/// interpolation and a cosine ease curve.
class NoiseOctave {
 public:
  NoiseOctave(size_t lattice_rows, size_t lattice_cols, Rng* rng)
      : rows_(lattice_rows), cols_(lattice_cols), values_(rows_ * cols_) {
    for (double& v : values_) v = rng->Uniform01();
  }

  /// Adds amplitude * (this octave sampled at (r / scale, c / scale)) to
  /// every cell of the rows x cols `field`. The ease curve depends only on
  /// the row or only on the column, so it is evaluated once per row and once
  /// per column; each cell is then four lattice loads and three lerps.
  void AddTo(size_t rows, size_t cols, double scale, double amplitude,
             double* field) const {
    std::vector<Knot> col_knots(cols);
    for (size_t c = 0; c < cols; ++c) {
      col_knots[c] = MakeKnot(static_cast<double>(c) / scale, cols_);
    }
    for (size_t r = 0; r < rows; ++r) {
      const Knot row = MakeKnot(static_cast<double>(r) / scale, rows_);
      const double* top_row = &values_[row.lo * cols_];
      const double* bottom_row = &values_[row.hi * cols_];
      double* out = field + r * cols;
      for (size_t c = 0; c < cols; ++c) {
        const Knot& col = col_knots[c];
        const double top = Lerp(top_row[col.lo], top_row[col.hi], col.ease);
        const double bottom =
            Lerp(bottom_row[col.lo], bottom_row[col.hi], col.ease);
        out[c] += amplitude * Lerp(top, bottom, row.ease);
      }
    }
  }

 private:
  /// The two lattice lines around position x and the eased offset between
  /// them.
  struct Knot {
    size_t lo;
    size_t hi;
    double ease;
  };

  static Knot MakeKnot(double x, size_t lattice) {
    const size_t lo = std::min(static_cast<size_t>(x), lattice - 1);
    const size_t hi = std::min(lo + 1, lattice - 1);
    return Knot{lo, hi, Ease(x - static_cast<double>(lo))};
  }
  static double Lerp(double a, double b, double t) { return a + (b - a) * t; }
  static double Ease(double t) { return 0.5 * (1.0 - std::cos(M_PI * t)); }

  size_t rows_;
  size_t cols_;
  std::vector<double> values_;
};

}  // namespace

std::vector<double> GenerateAutocorrelatedField(const FieldOptions& options) {
  SRP_CHECK(options.rows > 0 && options.cols > 0) << "empty field";
  SRP_CHECK(options.base_scale >= 1.0) << "base_scale must be >= 1";
  SRP_CHECK(options.octaves >= 1) << "need at least one octave";

  Rng rng(options.seed);
  std::vector<double> field(options.rows * options.cols, 0.0);
  double amplitude = 1.0;
  double scale = options.base_scale;

  for (int o = 0; o < options.octaves; ++o) {
    const size_t lattice_rows =
        std::max<size_t>(2, static_cast<size_t>(
                                std::ceil(static_cast<double>(options.rows) /
                                          scale)) +
                                1);
    const size_t lattice_cols =
        std::max<size_t>(2, static_cast<size_t>(
                                std::ceil(static_cast<double>(options.cols) /
                                          scale)) +
                                1);
    NoiseOctave(lattice_rows, lattice_cols, &rng)
        .AddTo(options.rows, options.cols, scale, amplitude, field.data());
    amplitude *= options.persistence;
    scale = std::max(1.0, scale * 0.5);
  }

  // Normalize to [0, 1].
  const auto [min_it, max_it] = std::minmax_element(field.begin(), field.end());
  const double lo = *min_it;
  const double span = *max_it - lo;
  if (span > 0.0) {
    for (double& v : field) v = (v - lo) / span;
  } else {
    std::fill(field.begin(), field.end(), 0.5);
  }
  return field;
}

}  // namespace srp
