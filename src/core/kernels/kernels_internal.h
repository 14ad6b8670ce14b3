#ifndef SRP_CORE_KERNELS_KERNELS_INTERNAL_H_
#define SRP_CORE_KERNELS_KERNELS_INTERNAL_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "core/kernels/kernels.h"
#include "grid/soa_view.h"

// Shared per-element routines defining the CANONICAL operation order of the
// core kernels. Both the scalar and the AVX2 translation units include this
// header: the vector paths execute exactly these operations lane-wise (same
// IEEE ops, same per-element sequence), and their remainders call these
// functions directly, which is what makes every SimdLevel bit-identical.
//
// None of the expressions below contains a multiply-add chain, so
// -ffp-contract cannot introduce FMAs that would differ between the TUs.

namespace srp {
namespace kernels {

/// The canonical scalar kernel set (kernels_scalar.cc).
extern const KernelTable kScalarKernels;

/// The AVX2 kernel set, or null when it is not compiled into this binary
/// (non-x86 target or a compiler without -mavx2). Defined in
/// kernels_avx2.cc either way.
const KernelTable* Avx2KernelsOrNull();

namespace internal {

/// Eq. 1 variation of the valid/valid cell pair (a, b): the per-attribute
/// contributions added in ascending attribute order, divided by the
/// attribute count. Callers handle the null encoding (both null -> 0, mixed
/// -> +inf) before or after this.
inline double PairVariationValid(const GridSoAView& g, size_t a, size_t b) {
  const SoAAttrPlane* planes = g.planes();
  const size_t p = g.num_attributes();
  double acc = 0.0;
  for (size_t k = 0; k < p; ++k) {
    const double u = planes[k].values[a];
    const double v = planes[k].values[b];
    if (planes[k].is_categorical != 0) {
      acc += (u == v) ? 0.0 : 1.0;  // category mismatch indicator
    } else {
      acc += std::fabs(u - v);
    }
  }
  return acc / static_cast<double>(p);
}

/// Eq. 1 variation of cell pair (a, b) including the null encoding.
inline double PairVariationCell(const GridSoAView& g, size_t a, size_t b) {
  const bool null_a = g.IsNull(a);
  const bool null_b = g.IsNull(b);
  if (null_a && null_b) return 0.0;
  if (null_a != null_b) return std::numeric_limits<double>::infinity();
  return PairVariationValid(g, a, b);
}

/// Adds one cell's Eq. 3 contribution to (*total, *terms) and returns the
/// cell's subtotal: the cell's per-attribute terms accumulate into it in
/// ascending k order, and it is added to *total — the canonical association
/// every kernel reproduces. Null cells contribute nothing (subtotal 0).
/// Representative values come straight from the group's feature row (zeros
/// when the row has the wrong arity; negative ids — never produced by a
/// validated partition — are clamped to group 0), divided by SumDivisor for
/// kSum attributes with exactly the operands RepresentativeValue uses.
inline double IflCell(const GridSoAView& g, const GroupFeatureView& feat,
                      size_t p, const int32_t* cell_to_group, size_t cell,
                      double* total, uint64_t* terms) {
  if (g.IsNull(cell)) return 0.0;
  const int32_t group = cell_to_group[cell];
  const size_t gid = static_cast<size_t>(group < 0 ? 0 : group);
  const double* row = nullptr;
  if (gid < feat.num_groups && feat.rows[gid].size() == p) {
    row = feat.rows[gid].data();
  }
  const SoAAttrPlane* planes = g.planes();
  double divisor = 1.0;
  bool have_divisor = false;
  double cell_total = 0.0;
  uint64_t cell_terms = 0;
  for (size_t k = 0; k < p; ++k) {
    const double original = planes[k].values[cell];
    double rep = 0.0;
    if (row != nullptr) {
      rep = row[k];
      if (planes[k].is_sum != 0) {
        if (!have_divisor) {
          divisor = feat.partition->SumDivisor(gid);
          have_divisor = true;
        }
        rep /= divisor;
      }
    }
    if (planes[k].is_categorical != 0) {
      // Categorical extension: 0/1 mismatch against the group's mode.
      cell_total += (rep == original) ? 0.0 : 1.0;
      ++cell_terms;
      continue;
    }
    if (original == 0.0) continue;  // relative error undefined
    cell_total += std::fabs(original - rep) / std::fabs(original);
    ++cell_terms;
  }
  *total += cell_total;
  *terms += cell_terms;
  return cell_total;
}

/// Overwrites the pair-variation entries involving the null cells of rows
/// [r_beg, r_end) with the null encoding (both null -> 0, mixed -> +inf).
/// The bulk kernels compute the valid/valid formula unconditionally over
/// the null cells' 0.0 placeholders, then this pass patches the few
/// affected pairs; rows without nulls skip it via the packed bitmask.
inline void PatchNullPairsRight(const GridSoAView& g, size_t r, double* right) {
  const size_t cols = g.cols();
  const size_t base = r * cols;
  if (!g.AnyNullInRange(base, base + cols)) return;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const uint8_t* null = g.null_mask();
  for (size_t c = 0; c < cols; ++c) {
    if (null[base + c] == 0) continue;
    if (c > 0) right[base + c - 1] = null[base + c - 1] != 0 ? 0.0 : kInf;
    if (c + 1 < cols) right[base + c] = null[base + c + 1] != 0 ? 0.0 : kInf;
  }
}

/// Same for the down pairs between rows r and r+1.
inline void PatchNullPairsDown(const GridSoAView& g, size_t r, double* down) {
  const size_t cols = g.cols();
  const size_t base = r * cols;
  if (!g.AnyNullInRange(base, base + 2 * cols)) return;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const uint8_t* null = g.null_mask();
  for (size_t c = 0; c < cols; ++c) {
    const bool null_up = null[base + c] != 0;
    const bool null_dn = null[base + cols + c] != 0;
    if (!null_up && !null_dn) continue;
    down[base + c] = (null_up && null_dn) ? 0.0 : kInf;
  }
}

}  // namespace internal
}  // namespace kernels
}  // namespace srp

#endif  // SRP_CORE_KERNELS_KERNELS_INTERNAL_H_
