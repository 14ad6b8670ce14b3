#include "reference/algorithm2.h"

#include <cmath>
#include <map>

namespace srp::reference {
namespace {

double Mode(const std::vector<double>& values) {
  std::map<double, size_t> counts;
  for (double v : values) ++counts[v];
  double mode = counts.begin()->first;
  size_t best = 0;
  for (const auto& [value, count] : counts) {
    if (count > best) {
      best = count;
      mode = value;
    }
  }
  return mode;
}

/// Eq. 2: the mean absolute deviation of the values from `representative`.
double LocalLoss(const std::vector<double>& values, double representative) {
  double total = 0.0;
  for (double v : values) total += std::fabs(v - representative);
  return total / static_cast<double>(values.size());
}

}  // namespace

GroupFeatures AllocateGroup(const GridDataset& grid, const CellGroup& group) {
  const size_t p = grid.num_attributes();
  GroupFeatures out;
  out.features.assign(p, 0.0);
  for (size_t r = group.r_beg; r <= group.r_end; ++r) {
    for (size_t c = group.c_beg; c <= group.c_end; ++c) {
      if (!grid.IsNull(r, c)) ++out.valid_count;
    }
  }
  if (out.valid_count == 0) {
    out.null = true;
    return out;
  }
  for (size_t k = 0; k < p; ++k) {
    std::vector<double> values;
    for (size_t r = group.r_beg; r <= group.r_end; ++r) {
      for (size_t c = group.c_beg; c <= group.c_end; ++c) {
        if (!grid.IsNull(r, c)) values.push_back(grid.At(r, c, k));
      }
    }
    double sum = 0.0;
    for (double v : values) sum += v;

    const AttributeSpec& attr = grid.attributes()[k];
    if (attr.is_categorical) {
      out.features[k] = Mode(values);
    } else if (attr.agg_type == AggType::kSum) {
      out.features[k] = sum;
    } else {
      double mean = sum / static_cast<double>(values.size());
      if (attr.is_integer) mean = std::round(mean);
      const double mode = Mode(values);
      out.features[k] =
          LocalLoss(values, mean) <= LocalLoss(values, mode) ? mean : mode;
    }
  }
  return out;
}

}  // namespace srp::reference
