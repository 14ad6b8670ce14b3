#include "core/feature_allocator.h"

#include <algorithm>
#include <cmath>

#include "fail/fault_injection.h"
#include "parallel/parallel_for.h"

namespace srp {

double LocalLoss(const std::vector<double>& cell_values,
                 double representative) {
  if (cell_values.empty()) return 0.0;
  double acc = 0.0;
  for (double v : cell_values) acc += std::fabs(v - representative);
  return acc / static_cast<double>(cell_values.size());
}

double ModeOf(std::span<const double> values, std::vector<double>* sorted) {
  sorted->assign(values.begin(), values.end());
  std::sort(sorted->begin(), sorted->end());
  const double* v = sorted->data();
  const size_t n = sorted->size();
  double best_value = v[0];
  size_t best_count = 0;
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && v[j] == v[i]) ++j;
    // Runs come in ascending order, so a strict > keeps the smaller value
    // on a tie.
    if (j - i > best_count) {
      best_count = j - i;
      best_value = v[i];
    }
    i = j;
  }
  // 0.0 and -0.0 form one run in an unspecified order; report the zero that
  // comes first in cell order.
  if (best_value == 0.0) {
    best_value = *std::find(values.begin(), values.end(), 0.0);
  }
  return best_value;
}

double AverageRepresentative(const AttributeSpec& attr,
                             const std::vector<double>& values, double sum,
                             std::vector<double>* sorted) {
  const double mode = ModeOf(values, sorted);
  // The mean of category ids is meaningless; the mode is the only sensible
  // representative.
  if (attr.is_categorical) return mode;
  double mean = sum / static_cast<double>(values.size());
  if (attr.is_integer) mean = std::round(mean);
  return LocalLoss(values, mean) <= LocalLoss(values, mode) ? mean : mode;
}

namespace {

/// Groups per ParallelFor chunk. Groups are small early in the coarsening
/// run and the per-group work is light, so shards batch many of them.
constexpr size_t kGroupGrain = 64;

}  // namespace

void AllocateGroupFeatures(const GridDataset& grid, const CellGroup& group,
                           FeatureScratch* scratch,
                           std::vector<double>* features, uint8_t* group_null,
                           uint32_t* valid_count) {
  const size_t p = grid.num_attributes();
  features->assign(p, 0.0);
  *group_null = 0;
  *valid_count = 0;
  // The extractor never mixes null and valid cells, so group nullness can
  // be read off the first cell.
  if (grid.IsNull(group.r_beg, group.c_beg)) {
    *group_null = 1;
    return;
  }
  *valid_count = static_cast<uint32_t>(group.NumCells());
  const size_t cols = grid.cols();
  std::vector<double>& values = scratch->values;
  for (size_t k = 0; k < p; ++k) {
    const AttributeSpec& attr = grid.attributes()[k];
    // Hoisted plane pointer: same doubles as grid.At(r, c, k), read in the
    // same order, without re-deriving the cell index per read.
    const double* plane = grid.AttributeValues(k).data();
    // Summation attributes need only the sum, added in the same row-major
    // order; the others gather their values for the mode and Eq. 2.
    const bool sum_only = attr.agg_type == AggType::kSum &&
                          !attr.is_categorical;
    values.clear();
    values.reserve(group.NumCells());
    double sum = 0.0;
    for (size_t r = group.r_beg; r <= group.r_end; ++r) {
      const double* row = plane + r * cols;
      for (size_t c = group.c_beg; c <= group.c_end; ++c) {
        const double v = row[c];
        if (!sum_only) values.push_back(v);
        sum += v;
      }
    }
    (*features)[k] = sum_only ? sum
                              : AverageRepresentative(attr, values, sum,
                                                      &scratch->sorted);
  }
}

Status AllocateFeatures(const GridDataset& grid, Partition* partition,
                        ThreadPool* pool, const RunContext* ctx) {
  if (partition->rows != grid.rows() || partition->cols != grid.cols()) {
    return Status::InvalidArgument("partition/grid dimension mismatch");
  }
  SRP_INJECT_FAULT("core.allocate_features");
  SRP_RETURN_IF_INTERRUPTED(ctx);
  const size_t p = grid.num_attributes();
  partition->features.assign(partition->num_groups(),
                             std::vector<double>(p, 0.0));
  partition->group_null.assign(partition->num_groups(), 0);
  partition->group_valid_count.assign(partition->num_groups(), 0);

  // Group shards write disjoint entries of features/group_null/
  // group_valid_count, and each group reads only its own cells.
  ParallelFor(pool, 0, partition->num_groups(), kGroupGrain,
              [&grid, partition](size_t g_beg, size_t g_end) {
    FeatureScratch scratch;
    for (size_t g = g_beg; g < g_end; ++g) {
      AllocateGroupFeatures(grid, partition->groups[g], &scratch,
                            &partition->features[g],
                            &partition->group_null[g],
                            &partition->group_valid_count[g]);
    }
  }, ctx);
  SRP_RETURN_IF_INTERRUPTED(ctx);
  return Status::OK();
}

}  // namespace srp
