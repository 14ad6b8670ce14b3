// Command-line flags of srp_perfbench, parsed strictly: unknown
// flags, repeated flags, missing values and malformed numbers are errors.

#ifndef PERFBENCH_FLAGS_H_
#define PERFBENCH_FLAGS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

struct BenchFlags {
  /// A workload name, or "all" to run every workload in turn.
  std::string workload = "all";
  uint64_t seed = 7;
  /// Measuring time per workload; passes repeat until it is used up.
  int seconds = 10;
  /// Traced mode: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Scratch directory for the exported CSVs and, in traced mode, the
  /// Chrome trace (trace-<workload>-<seed>.json).
  std::string out_dir = ".bench_build/perfbench-out";
  /// Print the metric schema (name and unit, one a line) and exit.
  bool list_metrics = false;
};

/// Parses `args` (argv without the program name). Accepts `--flag value`
/// and `--flag=value`. `known_workloads` lists the valid --workload names
/// besides "all".
srp::Result<BenchFlags> ParseFlags(
    const std::vector<std::string>& args,
    const std::vector<std::string>& known_workloads);

}  // namespace perfbench

#endif  // PERFBENCH_FLAGS_H_
