#include "reference/eq3.h"

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace srp::reference {

double InformationLoss(const GridDataset& grid, const Partition& partition) {
  long double total = 0.0L;
  uint64_t terms = 0;
  for (size_t g = 0; g < partition.groups.size(); ++g) {
    const CellGroup& group = partition.groups[g];
    const std::vector<double>& feature = partition.features[g];
    const bool recorded = g < partition.group_valid_count.size() &&
                          partition.group_valid_count[g] > 0;
    const long double cells = recorded ? partition.group_valid_count[g]
                                       : group.NumCells();
    for (size_t r = group.r_beg; r <= group.r_end; ++r) {
      for (size_t c = group.c_beg; c <= group.c_end; ++c) {
        if (grid.IsNull(r, c)) continue;
        for (size_t j = 0; j < grid.num_attributes(); ++j) {
          const AttributeSpec& attr = grid.attributes()[j];
          const long double d = grid.At(r, c, j);
          long double d_bar = feature[j];
          if (attr.agg_type == AggType::kSum) d_bar /= cells;
          if (attr.is_categorical) {
            total += d_bar == d ? 0.0L : 1.0L;
            ++terms;
          } else if (d != 0.0L) {
            total += std::fabs(d - d_bar) / std::fabs(d);
            ++terms;
          }
        }
      }
    }
  }
  return terms == 0 ? 0.0 : static_cast<double>(total / terms);
}

}  // namespace srp::reference
