#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/information_loss.h"

namespace perfbench {

using srp::GridDataset;
using srp::Partition;

namespace {

std::string Where(size_t g) { return "group " + std::to_string(g); }

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameFeatures(const std::vector<std::vector<double>>& a,
                  const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

}  // namespace

std::string CheckTiling(const GridDataset& grid, const Partition& p) {
  if (p.rows != grid.rows() || p.cols != grid.cols()) {
    return "partition shape differs from the grid";
  }
  const size_t cells = grid.num_cells();
  const size_t groups = p.num_groups();
  if (p.cell_to_group.size() != cells) return "cell map has the wrong size";
  if (p.group_null.size() != groups || p.features.size() != groups) {
    return "per-group tables have the wrong size";
  }
  std::vector<uint8_t> covered(cells, 0);
  for (size_t g = 0; g < groups; ++g) {
    const srp::CellGroup& cg = p.groups[g];
    if (cg.r_beg > cg.r_end || cg.c_beg > cg.c_end || cg.r_end >= p.rows ||
        cg.c_end >= p.cols) {
      return Where(g) + " is not a rectangle inside the grid";
    }
    if (p.features[g].size() != grid.num_attributes()) {
      return Where(g) + " has a feature vector of the wrong arity";
    }
    const bool first_null = grid.IsNull(cg.r_beg, cg.c_beg);
    for (size_t r = cg.r_beg; r <= cg.r_end; ++r) {
      for (size_t c = cg.c_beg; c <= cg.c_end; ++c) {
        const size_t cell = grid.CellIndex(r, c);
        if (covered[cell]++ != 0) {
          return "cell (" + std::to_string(r) + "," + std::to_string(c) +
                 ") lies in more than one group";
        }
        if (p.cell_to_group[cell] != static_cast<int32_t>(g)) {
          return "cell map disagrees with " + Where(g);
        }
        if (grid.IsNull(r, c) != first_null) {
          return Where(g) + " mixes null and non-null cells";
        }
      }
    }
    if ((p.group_null[g] != 0) != first_null) {
      return Where(g) + " has a wrong null flag";
    }
  }
  for (size_t cell = 0; cell < cells; ++cell) {
    if (covered[cell] == 0) {
      return "cell " + std::to_string(cell) + " lies in no group";
    }
  }
  return "";
}

std::string CheckInformationLoss(const GridDataset& grid, const Partition& p,
                                 double reported, double theta) {
  const double recomputed = srp::InformationLoss(grid, p);
  if (!SameBits(recomputed, reported)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "reported IFL %.17g differs from Eq. 3 recomputed %.17g",
                  reported, recomputed);
    return buf;
  }
  if (!(reported <= theta)) {
    return "IFL " + std::to_string(reported) + " exceeds theta " +
           std::to_string(theta);
  }
  return "";
}

std::string CheckRun(const GridDataset& grid,
                     const srp::RepartitionResult& result, double theta) {
  return FirstError(
      {CheckTiling(grid, result.partition),
       CheckInformationLoss(grid, result.partition, result.information_loss,
                            theta)});
}

std::string CheckSamePartition(const Partition& a, const Partition& b) {
  if (a.rows != b.rows || a.cols != b.cols || a.groups != b.groups ||
      a.cell_to_group != b.cell_to_group) {
    return "partitions differ in their groups";
  }
  if (!SameFeatures(a.features, b.features) || a.group_null != b.group_null ||
      a.group_valid_count != b.group_valid_count) {
    return "partitions differ in their features";
  }
  return "";
}

std::string CheckSameRun(const srp::RepartitionResult& a,
                         const srp::RepartitionResult& b) {
  if (!SameBits(a.information_loss, b.information_loss) ||
      a.iterations != b.iterations) {
    return "runs differ in IFL or iterations";
  }
  return CheckSamePartition(a.partition, b.partition);
}

std::string CheckStRun(const srp::TemporalGridSeries& series,
                       const srp::StRepartitionResult& result, double theta) {
  const size_t slices = series.num_slices();
  if (result.per_slice_loss.size() != slices ||
      result.slice_features.size() != slices ||
      result.slice_group_null.size() != slices) {
    return "per-slice tables have the wrong size";
  }
  double mean = 0.0;
  Partition per_slice = result.partition;
  for (size_t t = 0; t < slices; ++t) {
    per_slice.features = result.slice_features[t];
    per_slice.group_null = result.slice_group_null[t];
    const std::string error = FirstError(
        {CheckTiling(series.slice(t), per_slice),
         CheckInformationLoss(series.slice(t), per_slice,
                              result.per_slice_loss[t], 1.0)});
    if (!error.empty()) return "slice " + std::to_string(t) + ": " + error;
    mean += result.per_slice_loss[t];
  }
  mean /= static_cast<double>(slices);
  if (std::fabs(mean - result.information_loss) >
      1e-12 * std::max(1.0, mean)) {
    return "reported mean loss differs from the per-slice mean";
  }
  if (!(result.information_loss <= theta)) {
    return "mean per-slice loss exceeds theta";
  }
  return "";
}

std::string CheckSameStRun(const srp::StRepartitionResult& a,
                           const srp::StRepartitionResult& b) {
  if (!SameBits(a.per_slice_loss, b.per_slice_loss) ||
      a.iterations != b.iterations) {
    return "ST runs differ in losses or iterations";
  }
  for (size_t t = 0; t < a.slice_features.size(); ++t) {
    if (t >= b.slice_features.size() ||
        !SameFeatures(a.slice_features[t], b.slice_features[t])) {
      return "ST runs differ in slice features";
    }
  }
  return CheckSamePartition(a.partition, b.partition);
}

void CheckLedger::Record(const std::string& what, const std::string& error) {
  ++attempted_;
  if (error.empty()) return;
  ++failed_;
  if (messages_.size() < 8) messages_.push_back(what + ": " + error);
}

std::string FirstError(std::initializer_list<std::string> errors) {
  for (const std::string& e : errors) {
    if (!e.empty()) return e;
  }
  return "";
}

}  // namespace perfbench
