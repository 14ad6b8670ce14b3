// Output checks applied to every call the benchmark makes. Each returns an
// empty string when the output is correct and a one-line description of the
// first violation otherwise.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/partition.h"
#include "core/repartitioner.h"
#include "grid/grid_dataset.h"
#include "st/st_repartitioner.h"
#include "st/temporal_grid.h"

namespace perfbench {

/// The groups tile the grid: every cell lies in exactly one rectangle, the
/// cell -> group map agrees with the rectangles, no group mixes null and
/// non-null cells, and the feature table has one row of the grid's arity
/// per group.
std::string CheckTiling(const srp::GridDataset& grid,
                        const srp::Partition& partition);

/// Eq. 3 recomputed with the public InformationLoss equals `reported`, and
/// `reported` <= `theta`.
std::string CheckInformationLoss(const srp::GridDataset& grid,
                                 const srp::Partition& partition,
                                 double reported, double theta);

/// Tiling plus information loss, for one Repartitioner::Run result.
std::string CheckRun(const srp::GridDataset& grid,
                     const srp::RepartitionResult& result, double theta);

/// Bit-for-bit equality of two partitions (groups, map, features, flags).
std::string CheckSamePartition(const srp::Partition& a,
                               const srp::Partition& b);

/// Bit-for-bit equality of two Run results: partition, IFL, iterations.
std::string CheckSameRun(const srp::RepartitionResult& a,
                         const srp::RepartitionResult& b);

/// StRepartitioner::Run output: the shared partition tiles every slice,
/// each per-slice loss matches Eq. 3 on that slice's allocation, and the
/// mean per-slice loss is the reported one and <= `theta`.
std::string CheckStRun(const srp::TemporalGridSeries& series,
                       const srp::StRepartitionResult& result, double theta);

/// Bit-for-bit equality of two StRepartitioner results.
std::string CheckSameStRun(const srp::StRepartitionResult& a,
                           const srp::StRepartitionResult& b);

/// Tallies calls and failed outputs; keeps the first messages.
class CheckLedger {
 public:
  /// Counts one call; `error` is empty when its call and every
  /// check of its output passed.
  void Record(const std::string& what, const std::string& error);

  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// Joins check results: the first non-empty one, else "".
std::string FirstError(std::initializer_list<std::string> errors);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
