// Scalar (portable) implementations of the core kernels. These define the
// canonical results: the vector tiers must match them bit-for-bit (see
// kernels_internal.h for the shared per-element routines).

#include <cstddef>
#include <cstdint>

#include "core/kernels/kernels.h"
#include "core/kernels/kernels_internal.h"

namespace srp {
namespace kernels {
namespace {

void PairVariationRowsScalar(const GridSoAView& g, size_t r_beg, size_t r_end,
                             double* right, double* down) {
  const size_t rows = g.rows();
  const size_t cols = g.cols();
  for (size_t r = r_beg; r < r_end; ++r) {
    const size_t base = r * cols;
    for (size_t c = 0; c + 1 < cols; ++c) {
      right[base + c] = internal::PairVariationCell(g, base + c, base + c + 1);
    }
    if (r + 1 < rows) {
      for (size_t c = 0; c < cols; ++c) {
        down[base + c] =
            internal::PairVariationCell(g, base + c, base + cols + c);
      }
    }
  }
}

IflPartial IflCellsScalar(const GridSoAView& g, const GroupFeatureView& feat,
                          const int32_t* cell_to_group, size_t cell_beg,
                          size_t cell_end, double* cell_out) {
  const size_t p = g.num_attributes();
  IflPartial out;
  for (size_t cell = cell_beg; cell < cell_end; ++cell) {
    const double subtotal = internal::IflCell(g, feat, p, cell_to_group, cell,
                                              &out.total, &out.terms);
    if (cell_out != nullptr) cell_out[cell - cell_beg] = subtotal;
  }
  return out;
}

}  // namespace

const KernelTable kScalarKernels = {
    SimdLevel::kScalar,
    &PairVariationRowsScalar,
    &IflCellsScalar,
};

}  // namespace kernels
}  // namespace srp
