#ifndef SRP_CORE_KERNELS_KERNELS_H_
#define SRP_CORE_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/partition.h"
#include "grid/soa_view.h"

namespace srp {
namespace kernels {

/// Instruction-set tier of the core kernels. Resolved once per process from
/// the CPU and the SRP_SIMD environment override (DESIGN.md §12); every tier
/// produces bit-identical results — the scalar fallback mirrors the vector
/// paths' per-cell operation order exactly — so the choice is purely a
/// throughput knob, never a correctness one.
enum class SimdLevel {
  kScalar = 0,
  kAvx2 = 1,
};

const char* SimdLevelName(SimdLevel level);

/// True when the AVX2 kernels are compiled in AND the running CPU reports
/// AVX2 support.
bool Avx2Supported();

/// The level the dispatcher resolved for this process: SRP_SIMD when set
/// ("scalar" | "avx2" | "auto"; an unsupported request degrades to scalar
/// with a warning), otherwise the best supported tier.
SimdLevel ActiveSimdLevel();

/// Overrides the active level (tests and benchmarks). An unsupported level
/// degrades to scalar. Not thread-safe against in-flight kernel calls; call
/// between runs only.
void SetSimdLevel(SimdLevel level);

/// RAII SetSimdLevel: forces a level for one scope, restoring the previous
/// level on exit. Used by the equivalence tests and the forced-scalar bench
/// rows.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level)
      : previous_(ActiveSimdLevel()) {
    SetSimdLevel(level);
  }
  ~ScopedSimdLevel() { SetSimdLevel(previous_); }

  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  SimdLevel previous_;
};

/// Partial IFL sum (Eq. 3 numerator and term count) of one cell range.
struct IflPartial {
  double total = 0.0;
  uint64_t terms = 0;

  friend bool operator==(const IflPartial& a, const IflPartial& b) = default;
};

/// Zero-copy view of a partition's allocated per-group feature rows — the
/// representative-value source of the IFL kernels. The representative of
/// attribute k for a cell of group g is the group's allocated feature,
/// divided by Partition::SumDivisor(g) for summation attributes; the
/// division uses the same operands as RepresentativeValue, so every result
/// is bit-identical to the per-cell path. Groups without an allocated
/// feature row of the right arity (never produced by the allocators) read
/// as zeros. Borrows the partition: valid only while it is alive and its
/// features are not mutated.
struct GroupFeatureView {
  GroupFeatureView() = default;
  explicit GroupFeatureView(const Partition& p)
      : rows(p.features.data()),
        num_groups(p.features.size() < p.groups.size() ? p.features.size()
                                                       : p.groups.size()),
        partition(&p) {}

  const std::vector<double>* rows = nullptr;  ///< feature row per group
  size_t num_groups = 0;  ///< ids >= this read as zeros (defensive)
  const Partition* partition = nullptr;  ///< SumDivisor source (kSum attrs)
};

/// The dispatchable kernel set. All implementations of one slot are
/// bit-identical; see kernels_internal.h for the shared canonical
/// per-element operation order.
struct KernelTable {
  SimdLevel level;

  /// Fills the adjacent-pair variations (Eq. 1) of rows [r_beg, r_end):
  /// right[r*cols + c] for c < cols-1, and down[r*cols + c] when r+1 < rows
  /// (reading row r+1). Entries not covered (last column / last row) are
  /// left untouched. Null encoding: both-null pairs 0, mixed pairs +inf.
  void (*pair_variation_rows)(const GridSoAView& normalized, size_t r_beg,
                              size_t r_end, double* right, double* down);

  /// IFL partial (Eq. 3) over the flat cell range [cell_beg, cell_end):
  /// per valid cell, numeric attributes contribute |orig - rep| / |orig|
  /// (skipped when orig == 0), categorical ones a 0/1 mismatch, with the
  /// representative values read straight from `feat` (no intermediate
  /// table). Accumulation order is canonical: per-cell subtotals over
  /// ascending k, added in ascending cell order. A non-null `cell_out`
  /// receives those subtotals, cell_out[i] for cell cell_beg + i (0 for a
  /// null cell), so re-adding them in order from 0 gives the partial's total.
  IflPartial (*ifl_cells)(const GridSoAView& grid,
                          const GroupFeatureView& feat,
                          const int32_t* cell_to_group, size_t cell_beg,
                          size_t cell_end, double* cell_out);
};

/// Kernels for the process-wide active level.
const KernelTable& ActiveKernels();

/// Kernels for a specific level (unsupported levels degrade to scalar).
const KernelTable& KernelsFor(SimdLevel level);

/// Rows per IFL reduction shard. Fixed (never derived from the thread
/// count) so the shard layout — and therefore the floating-point combine
/// order — is a pure function of the grid shape. Shared by the full
/// InformationLoss reduction and the incremental engine's cached partials,
/// which makes their results bit-identical by construction.
inline constexpr size_t kIflRowGrain = 8;

}  // namespace kernels
}  // namespace srp

#endif  // SRP_CORE_KERNELS_KERNELS_H_
