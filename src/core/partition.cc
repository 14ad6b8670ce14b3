#include "core/partition.h"

namespace srp {

Centroid Partition::GroupCentroid(const GridDataset& grid, size_t group) const {
  const CellGroup& g = groups[group];
  const Centroid lo = grid.CellCentroid(g.r_beg, g.c_beg);
  const Centroid hi = grid.CellCentroid(g.r_end, g.c_end);
  return Centroid{0.5 * (lo.lat + hi.lat), 0.5 * (lo.lon + hi.lon)};
}

std::vector<Centroid> Partition::GroupVertices(const GridDataset& grid,
                                               size_t group) const {
  const CellGroup& g = groups[group];
  const GeoExtent& e = grid.extent();
  const double lat_step =
      (e.lat_max - e.lat_min) / static_cast<double>(grid.rows());
  const double lon_step =
      (e.lon_max - e.lon_min) / static_cast<double>(grid.cols());
  const double lat_lo = e.lat_min + static_cast<double>(g.r_beg) * lat_step;
  const double lat_hi = e.lat_min + static_cast<double>(g.r_end + 1) * lat_step;
  const double lon_lo = e.lon_min + static_cast<double>(g.c_beg) * lon_step;
  const double lon_hi = e.lon_min + static_cast<double>(g.c_end + 1) * lon_step;
  return {Centroid{lat_lo, lon_lo}, Centroid{lat_lo, lon_hi},
          Centroid{lat_hi, lon_lo}, Centroid{lat_hi, lon_hi}};
}

Status Partition::Validate(const GridDataset& grid) const {
  if (rows != grid.rows() || cols != grid.cols()) {
    return Status::InvalidArgument("partition/grid dimension mismatch");
  }
  if (cell_to_group.size() != rows * cols) {
    return Status::Internal("cell_to_group size mismatch");
  }
  std::vector<size_t> covered(groups.size(), 0);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const int32_t g = cell_to_group[r * cols + c];
      if (g < 0 || static_cast<size_t>(g) >= groups.size()) {
        return Status::Internal("cell (" + std::to_string(r) + "," +
                                std::to_string(c) +
                                ") maps to invalid group " + std::to_string(g));
      }
      if (!groups[static_cast<size_t>(g)].Contains(r, c)) {
        return Status::Internal("cell outside its group's rectangle");
      }
      ++covered[static_cast<size_t>(g)];
    }
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    if (groups[g].vacant()) {
      return Status::Internal("group " + std::to_string(g) + " is vacant");
    }
    if (covered[g] != groups[g].NumCells()) {
      return Status::Internal(
          "group " + std::to_string(g) + " covers " +
          std::to_string(covered[g]) + " cells but its rectangle holds " +
          std::to_string(groups[g].NumCells()));
    }
    if (groups[g].r_end >= rows || groups[g].c_end >= cols) {
      return Status::Internal("group rectangle out of grid bounds");
    }
  }
  if (!features.empty()) {
    if (features.size() != groups.size()) {
      return Status::Internal("features size != #groups");
    }
    for (const auto& fv : features) {
      if (fv.size() != grid.num_attributes()) {
        return Status::Internal("feature vector arity mismatch");
      }
    }
    if (group_null.size() != groups.size()) {
      return Status::Internal("group_null size != #groups");
    }
  }
  return Status::OK();
}

void CompactGroups(Partition* p) {
  std::vector<int32_t> new_id(p->groups.size());
  int32_t live = 0;
  for (size_t g = 0; g < p->groups.size(); ++g) {
    new_id[g] = p->groups[g].vacant() ? -1 : live++;
  }
  if (static_cast<size_t>(live) == p->groups.size()) return;
  for (int32_t& id : p->cell_to_group) id = new_id[id];
  EraseVacantRows(p->groups, &p->features);
  EraseVacantRows(p->groups, &p->group_null);
  EraseVacantRows(p->groups, &p->group_valid_count);
  std::erase_if(p->groups, [](const CellGroup& g) { return g.vacant(); });
}

Partition TrivialPartition(const GridDataset& grid) {
  Partition p;
  p.rows = grid.rows();
  p.cols = grid.cols();
  const size_t cells = grid.num_cells();
  p.groups.reserve(cells);
  p.cell_to_group.resize(cells);
  p.features.reserve(cells);
  p.group_null.reserve(cells);
  for (size_t r = 0; r < grid.rows(); ++r) {
    for (size_t c = 0; c < grid.cols(); ++c) {
      const auto id = static_cast<int32_t>(p.groups.size());
      p.cell_to_group[r * grid.cols() + c] = id;
      p.groups.push_back(CellGroup{static_cast<uint32_t>(r),
                                   static_cast<uint32_t>(r),
                                   static_cast<uint32_t>(c),
                                   static_cast<uint32_t>(c)});
      std::vector<double> fv(grid.num_attributes(), 0.0);
      if (!grid.IsNull(r, c)) {
        for (size_t k = 0; k < grid.num_attributes(); ++k) {
          fv[k] = grid.At(r, c, k);
        }
      }
      p.features.push_back(std::move(fv));
      const bool is_null = grid.IsNull(r, c);
      p.group_null.push_back(is_null ? 1 : 0);
      p.group_valid_count.push_back(is_null ? 0 : 1);
    }
  }
  return p;
}

}  // namespace srp
