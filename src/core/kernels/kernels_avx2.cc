// AVX2 implementations of the core kernels. This translation unit is the
// only one compiled with -mavx2 (see src/core/CMakeLists.txt); everything
// here is reached exclusively through the runtime dispatcher, which verifies
// CPU support first.
//
// Bit-identity contract: every lane executes exactly the operation sequence
// of kernels_internal.h — same IEEE adds/subs/abs/div/compares, per-element
// k ascending — and cross-lane accumulation happens in ascending cell order
// (4-cell blocks reduce lane 0..3 sequentially, remainders run the shared
// scalar routines). No FMA is used anywhere, so the scalar and vector paths
// cannot diverge through contraction.

#include "core/kernels/kernels.h"
#include "core/kernels/kernels_internal.h"

#if defined(SRP_KERNELS_HAVE_AVX2)

#include <immintrin.h>

#include <cstring>

namespace srp {
namespace kernels {
namespace {

/// Clears the sign bit of each lane — the vector counterpart of std::fabs.
inline __m256d Abs(__m256d x) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
}

/// Accumulates the Eq. 1 numerator of 4 adjacent pairs: lanes hold
/// sum over k of (categorical ? neq : |a - b|), k ascending.
inline __m256d PairNumerator4(const SoAAttrPlane* planes, size_t p, size_t a,
                              size_t b) {
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d acc = _mm256_setzero_pd();
  for (size_t k = 0; k < p; ++k) {
    const __m256d u = _mm256_loadu_pd(planes[k].values + a);
    const __m256d v = _mm256_loadu_pd(planes[k].values + b);
    if (planes[k].is_categorical != 0) {
      const __m256d neq = _mm256_cmp_pd(u, v, _CMP_NEQ_UQ);
      acc = _mm256_add_pd(acc, _mm256_and_pd(neq, one));
    } else {
      acc = _mm256_add_pd(acc, Abs(_mm256_sub_pd(u, v)));
    }
  }
  return acc;
}

void PairVariationRowsAvx2(const GridSoAView& g, size_t r_beg, size_t r_end,
                           double* right, double* down) {
  const size_t rows = g.rows();
  const size_t cols = g.cols();
  if (cols == 0) return;  // keeps cols - 1 below from wrapping
  const size_t p = g.num_attributes();
  const SoAAttrPlane* planes = g.planes();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d attr_count = _mm256_set1_pd(static_cast<double>(p));
  for (size_t r = r_beg; r < r_end; ++r) {
    const size_t base = r * cols;
    const bool has_down = r + 1 < rows;
    const size_t num_right = cols - 1;
    // Fused pass: the right pairs (c, c+1) and down pairs (r, c)-(r+1, c)
    // of one 4-column block share the row-r loads (3 loads per attribute
    // instead of 4). Values are computed over the raw planes (null
    // placeholders included) and the few null-involved pairs are patched
    // afterwards. The c+1 load reads through index c+4, hence the c+5
    // bound; the leftover columns take the tail loops below.
    //
    // The main loop runs two 4-column blocks per iteration: each block's
    // accumulator is a serial chain of p dependent adds, so a second
    // independent block roughly doubles the ILP.
    size_t c = 0;
    for (; c + 9 <= cols; c += 8) {
      __m256d racc0 = _mm256_setzero_pd();
      __m256d racc1 = _mm256_setzero_pd();
      __m256d dacc0 = _mm256_setzero_pd();
      __m256d dacc1 = _mm256_setzero_pd();
      for (size_t k = 0; k < p; ++k) {
        const double* row = planes[k].values + base + c;
        const __m256d va0 = _mm256_loadu_pd(row);
        const __m256d va0s = _mm256_loadu_pd(row + 1);
        const __m256d va1 = _mm256_loadu_pd(row + 4);
        const __m256d va1s = _mm256_loadu_pd(row + 5);
        if (planes[k].is_categorical != 0) {
          racc0 = _mm256_add_pd(
              racc0,
              _mm256_and_pd(_mm256_cmp_pd(va0, va0s, _CMP_NEQ_UQ), one));
          racc1 = _mm256_add_pd(
              racc1,
              _mm256_and_pd(_mm256_cmp_pd(va1, va1s, _CMP_NEQ_UQ), one));
          if (has_down) {
            const __m256d vb0 = _mm256_loadu_pd(row + cols);
            const __m256d vb1 = _mm256_loadu_pd(row + cols + 4);
            dacc0 = _mm256_add_pd(
                dacc0,
                _mm256_and_pd(_mm256_cmp_pd(va0, vb0, _CMP_NEQ_UQ), one));
            dacc1 = _mm256_add_pd(
                dacc1,
                _mm256_and_pd(_mm256_cmp_pd(va1, vb1, _CMP_NEQ_UQ), one));
          }
        } else {
          racc0 = _mm256_add_pd(racc0, Abs(_mm256_sub_pd(va0, va0s)));
          racc1 = _mm256_add_pd(racc1, Abs(_mm256_sub_pd(va1, va1s)));
          if (has_down) {
            const __m256d vb0 = _mm256_loadu_pd(row + cols);
            const __m256d vb1 = _mm256_loadu_pd(row + cols + 4);
            dacc0 = _mm256_add_pd(dacc0, Abs(_mm256_sub_pd(va0, vb0)));
            dacc1 = _mm256_add_pd(dacc1, Abs(_mm256_sub_pd(va1, vb1)));
          }
        }
      }
      _mm256_storeu_pd(right + base + c, _mm256_div_pd(racc0, attr_count));
      _mm256_storeu_pd(right + base + c + 4,
                       _mm256_div_pd(racc1, attr_count));
      if (has_down) {
        _mm256_storeu_pd(down + base + c, _mm256_div_pd(dacc0, attr_count));
        _mm256_storeu_pd(down + base + c + 4,
                         _mm256_div_pd(dacc1, attr_count));
      }
    }
    for (; c + 5 <= cols; c += 4) {
      __m256d racc = _mm256_setzero_pd();
      __m256d dacc = _mm256_setzero_pd();
      for (size_t k = 0; k < p; ++k) {
        const double* row = planes[k].values + base + c;
        const __m256d va = _mm256_loadu_pd(row);
        const __m256d va1 = _mm256_loadu_pd(row + 1);
        if (planes[k].is_categorical != 0) {
          racc = _mm256_add_pd(
              racc,
              _mm256_and_pd(_mm256_cmp_pd(va, va1, _CMP_NEQ_UQ), one));
          if (has_down) {
            const __m256d vb = _mm256_loadu_pd(row + cols);
            dacc = _mm256_add_pd(
                dacc,
                _mm256_and_pd(_mm256_cmp_pd(va, vb, _CMP_NEQ_UQ), one));
          }
        } else {
          racc = _mm256_add_pd(racc, Abs(_mm256_sub_pd(va, va1)));
          if (has_down) {
            const __m256d vb = _mm256_loadu_pd(row + cols);
            dacc = _mm256_add_pd(dacc, Abs(_mm256_sub_pd(va, vb)));
          }
        }
      }
      _mm256_storeu_pd(right + base + c, _mm256_div_pd(racc, attr_count));
      if (has_down) {
        _mm256_storeu_pd(down + base + c, _mm256_div_pd(dacc, attr_count));
      }
    }
    if (has_down) {
      size_t d = c;
      for (; d + 4 <= cols; d += 4) {
        const __m256d acc =
            PairNumerator4(planes, p, base + d, base + cols + d);
        _mm256_storeu_pd(down + base + d, _mm256_div_pd(acc, attr_count));
      }
      for (; d < cols; ++d) {
        down[base + d] =
            internal::PairVariationValid(g, base + d, base + cols + d);
      }
      internal::PatchNullPairsDown(g, r, down);
    }
    for (; c < num_right; ++c) {
      right[base + c] =
          internal::PairVariationValid(g, base + c, base + c + 1);
    }
    internal::PatchNullPairsRight(g, r, right);
  }
}

/// One attribute's contribution to a 4-cell block: adds the per-lane term to
/// *cell_total and bumps the per-lane int64 term counter (mask lanes are -1,
/// so subtracting the mask adds one per counted lane — term counts are exact
/// integers, order-free). Term: numeric |orig - rep| / |orig| for valid
/// lanes with orig != 0 — the division runs unmasked (inf/NaN in excluded
/// lanes is annihilated by the bitwise and with the lane mask, keeping the
/// divider off the mask's dependency chain) — categorical a 0/1 mismatch
/// counted on every valid lane.
inline void IflLanes4(__m256d original, __m256d representative, __m256d valid,
                      bool is_categorical, __m256d one, __m256d zero,
                      __m256d* cell_total, __m256i* term_count) {
  if (is_categorical) {
    const __m256d mismatch = _mm256_and_pd(
        valid, _mm256_cmp_pd(representative, original, _CMP_NEQ_UQ));
    *cell_total = _mm256_add_pd(*cell_total, _mm256_and_pd(mismatch, one));
    *term_count =
        _mm256_sub_epi64(*term_count, _mm256_castpd_si256(valid));
  } else {
    const __m256d counted =
        _mm256_and_pd(valid, _mm256_cmp_pd(original, zero, _CMP_NEQ_UQ));
    const __m256d quotient = _mm256_div_pd(
        Abs(_mm256_sub_pd(original, representative)), Abs(original));
    *cell_total =
        _mm256_add_pd(*cell_total, _mm256_and_pd(counted, quotient));
    *term_count =
        _mm256_sub_epi64(*term_count, _mm256_castpd_si256(counted));
  }
}

/// Lane validity mask for the 4 cells whose null bytes are the low 4 bytes
/// of `null4`: a lane is all-ones when its byte is 0.
inline __m256d ValidMask4(uint32_t null4) {
  const __m256i null_lanes =
      _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(null4)));
  return _mm256_castsi256_pd(
      _mm256_cmpeq_epi64(null_lanes, _mm256_setzero_si256()));
}

/// True when the 4 cells at `ctg` share one group id (BlockRows4 has
/// already established the ids are in range).
inline bool UniformGroup4(const int32_t* ctg) {
  return ctg[0] == ctg[1] && ctg[0] == ctg[2] && ctg[0] == ctg[3];
}

/// Feature-row pointers of a 4-cell block. False when any cell's group id
/// is out of range or its row has the wrong arity — those blocks take the
/// scalar per-cell path, which reproduces the clamp/zero semantics.
inline bool BlockRows4(const GroupFeatureView& feat, size_t p,
                       const int32_t* ctg, const double* rows[4]) {
  for (int l = 0; l < 4; ++l) {
    const int32_t gid = ctg[l];
    if (gid < 0 || static_cast<size_t>(gid) >= feat.num_groups) return false;
    const std::vector<double>& row = feat.rows[gid];
    if (row.size() != p) return false;
    rows[l] = row.data();
  }
  return true;
}

/// Attribute k of 4 feature rows assembled into lanes 0..3.
inline __m256d GatherRep4(const double* const rows[4], size_t k) {
  const __m128d lo = _mm_loadh_pd(_mm_load_sd(rows[0] + k), rows[1] + k);
  const __m128d hi = _mm_loadh_pd(_mm_load_sd(rows[2] + k), rows[3] + k);
  return _mm256_set_m128d(hi, lo);
}

/// Per-lane SumDivisor of a 4-cell block (BlockRows4-validated ids).
inline __m256d SumDivisors4(const GroupFeatureView& feat,
                            const int32_t* ctg) {
  return _mm256_setr_pd(
      feat.partition->SumDivisor(static_cast<size_t>(ctg[0])),
      feat.partition->SumDivisor(static_cast<size_t>(ctg[1])),
      feat.partition->SumDivisor(static_cast<size_t>(ctg[2])),
      feat.partition->SumDivisor(static_cast<size_t>(ctg[3])));
}

IflPartial IflCellsAvx2(const GridSoAView& g, const GroupFeatureView& feat,
                        const int32_t* cell_to_group, size_t cell_beg,
                        size_t cell_end, double* cell_out) {
  const size_t p = g.num_attributes();
  const SoAAttrPlane* planes = g.planes();
  const uint8_t* null = g.null_mask();
  bool any_sum = false;
  for (size_t k = 0; k < p; ++k) any_sum = any_sum || planes[k].is_sum != 0;
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  IflPartial out;
  double total = 0.0;
  uint64_t scalar_terms = 0;
  __m256i term_count = _mm256_setzero_si256();  // one running counter: exact
  size_t cell = cell_beg;
  // The canonical per-cell routine, which also stores the subtotal.
  const auto scalar_cell = [&](size_t c, double* sum, uint64_t* terms) {
    const double subtotal =
        internal::IflCell(g, feat, p, cell_to_group, c, sum, terms);
    if (cell_out != nullptr) cell_out[c - cell_beg] = subtotal;
  };
  // Main loop: two 4-cell blocks per iteration. Each block's subtotal is a
  // serial chain of p dependent adds, so a second independent block roughly
  // doubles the ILP; the cross-lane reduce still runs in ascending cell
  // order (block A's lanes 0..3, then block B's). Blocks touching a group
  // without a well-formed feature row fall back to the canonical per-cell
  // routine, which accumulates into the same running `total`, so the
  // association is unchanged.
  for (; cell + 8 <= cell_end; cell += 8) {
    const int32_t* ctg = cell_to_group + cell;
    const double* rows_a[4];
    const double* rows_b[4];
    if (!BlockRows4(feat, p, ctg, rows_a) ||
        !BlockRows4(feat, p, ctg + 4, rows_b)) {
      for (size_t i = 0; i < 8; ++i) {
        scalar_cell(cell + i, &total, &scalar_terms);
      }
      continue;
    }
    uint64_t null8 = 0;
    std::memcpy(&null8, null + cell, 8);
    const __m256d valid_a = ValidMask4(static_cast<uint32_t>(null8));
    const __m256d valid_b = ValidMask4(static_cast<uint32_t>(null8 >> 32));
    __m256d total_a = zero;
    __m256d total_b = zero;
    if (UniformGroup4(ctg) && UniformGroup4(ctg + 4)) {
      // Fast path — each block's cells share a group (the common case once
      // coarsening sets in): representatives broadcast from the group row.
      // kSum attributes divide by the group divisor in scalar before the
      // broadcast — identical operands, identical double.
      const double* row_a = rows_a[0];
      const double* row_b = rows_b[0];
      const double div_a =
          any_sum ? feat.partition->SumDivisor(static_cast<size_t>(ctg[0]))
                  : 1.0;
      const double div_b =
          any_sum ? feat.partition->SumDivisor(static_cast<size_t>(ctg[4]))
                  : 1.0;
      for (size_t k = 0; k < p; ++k) {
        const double* vals = planes[k].values + cell;
        const bool cat = planes[k].is_categorical != 0;
        double rep_a = row_a[k];
        double rep_b = row_b[k];
        if (planes[k].is_sum != 0) {
          rep_a /= div_a;
          rep_b /= div_b;
        }
        IflLanes4(_mm256_loadu_pd(vals), _mm256_set1_pd(rep_a), valid_a,
                  cat, one, zero, &total_a, &term_count);
        IflLanes4(_mm256_loadu_pd(vals + 4), _mm256_set1_pd(rep_b), valid_b,
                  cat, one, zero, &total_b, &term_count);
      }
    } else {
      __m256d div_a = one;
      __m256d div_b = one;
      if (any_sum) {
        div_a = SumDivisors4(feat, ctg);
        div_b = SumDivisors4(feat, ctg + 4);
      }
      for (size_t k = 0; k < p; ++k) {
        const double* vals = planes[k].values + cell;
        const bool cat = planes[k].is_categorical != 0;
        __m256d rep_a = GatherRep4(rows_a, k);
        __m256d rep_b = GatherRep4(rows_b, k);
        if (planes[k].is_sum != 0) {
          rep_a = _mm256_div_pd(rep_a, div_a);
          rep_b = _mm256_div_pd(rep_b, div_b);
        }
        IflLanes4(_mm256_loadu_pd(vals), rep_a, valid_a, cat, one, zero,
                  &total_a, &term_count);
        IflLanes4(_mm256_loadu_pd(vals + 4), rep_b, valid_b, cat, one, zero,
                  &total_b, &term_count);
      }
    }
    // Canonical cross-lane order: cell subtotals added in cell order.
    alignas(32) double lanes[8];
    _mm256_store_pd(lanes, total_a);
    _mm256_store_pd(lanes + 4, total_b);
    if (cell_out != nullptr) {
      std::memcpy(cell_out + (cell - cell_beg), lanes, sizeof(lanes));
    }
    total += lanes[0];
    total += lanes[1];
    total += lanes[2];
    total += lanes[3];
    total += lanes[4];
    total += lanes[5];
    total += lanes[6];
    total += lanes[7];
  }
  // Single leftover 4-cell block, then the scalar tail.
  for (; cell + 4 <= cell_end; cell += 4) {
    const int32_t* ctg = cell_to_group + cell;
    const double* rows[4];
    if (!BlockRows4(feat, p, ctg, rows)) {
      for (size_t i = 0; i < 4; ++i) {
        scalar_cell(cell + i, &total, &scalar_terms);
      }
      continue;
    }
    uint32_t null4 = 0;
    std::memcpy(&null4, null + cell, 4);
    const __m256d valid = ValidMask4(null4);
    __m256d cell_total = zero;
    if (UniformGroup4(ctg)) {
      const double* row = rows[0];
      const double div0 =
          any_sum ? feat.partition->SumDivisor(static_cast<size_t>(ctg[0]))
                  : 1.0;
      for (size_t k = 0; k < p; ++k) {
        double rep = row[k];
        if (planes[k].is_sum != 0) rep /= div0;
        IflLanes4(_mm256_loadu_pd(planes[k].values + cell),
                  _mm256_set1_pd(rep), valid, planes[k].is_categorical != 0,
                  one, zero, &cell_total, &term_count);
      }
    } else {
      __m256d div4 = one;
      if (any_sum) div4 = SumDivisors4(feat, ctg);
      for (size_t k = 0; k < p; ++k) {
        __m256d rep = GatherRep4(rows, k);
        if (planes[k].is_sum != 0) rep = _mm256_div_pd(rep, div4);
        IflLanes4(_mm256_loadu_pd(planes[k].values + cell), rep, valid,
                  planes[k].is_categorical != 0, one, zero, &cell_total,
                  &term_count);
      }
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, cell_total);
    if (cell_out != nullptr) {
      std::memcpy(cell_out + (cell - cell_beg), lanes, sizeof(lanes));
    }
    total += lanes[0];
    total += lanes[1];
    total += lanes[2];
    total += lanes[3];
  }
  alignas(32) int64_t counts[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(counts), term_count);
  out.total = total;
  out.terms = scalar_terms + static_cast<uint64_t>(counts[0] + counts[1] +
                                                   counts[2] + counts[3]);
  for (; cell < cell_end; ++cell) scalar_cell(cell, &out.total, &out.terms);
  return out;
}

const KernelTable kAvx2Kernels = {
    SimdLevel::kAvx2,
    &PairVariationRowsAvx2,
    &IflCellsAvx2,
};

}  // namespace

const KernelTable* Avx2KernelsOrNull() { return &kAvx2Kernels; }

}  // namespace kernels
}  // namespace srp

#else  // !SRP_KERNELS_HAVE_AVX2

namespace srp {
namespace kernels {

const KernelTable* Avx2KernelsOrNull() { return nullptr; }

}  // namespace kernels
}  // namespace srp

#endif  // SRP_KERNELS_HAVE_AVX2
