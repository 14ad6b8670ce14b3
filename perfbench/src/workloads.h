// The benchmark's workloads. Each one generates its inputs from a seed and
// then runs passes: one pass makes every driver call of the workload at 1
// thread, again at N threads, and again at 1 thread with the program's
// observability on, exports the 1-thread outputs, and checks all of them.
// Every workload is a closed loop with one caller (the driver APIs are
// synchronous).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "span_recorder.h"
#include "util/status.h"

namespace perfbench {

struct Env {
  /// Records the benchmark's spans; disabled in untraced passes.
  SpanRecorder* spans = nullptr;
  CheckLedger* ledger = nullptr;
  /// N, the thread count of the multi-threaded calls.
  size_t threads_mt = 1;
  /// Scratch directory the exported CSVs are written to.
  std::string out_dir;

  bool traced() const { return spans != nullptr && spans->enabled(); }
};

/// Measurements of one pass.
struct PassOutput {
  double run_s = 0.0;      ///< driver calls at 1 thread
  double run_s_mt = 0.0;   ///< the same calls at N threads
  double run_s_obs = 0.0;  ///< at 1 thread with Tracer and introspection on
  double export_s = 0.0;   ///< adjacency + CSV export of the outputs
  int64_t peak_bytes = 0;       ///< largest heap high-water of one call
  double cell_reduction = 0.0;  ///< mean 1 - groups/cells of the outputs
  size_t input_bytes = 0;       ///< bytes of the largest call's input
  /// Per-layer values; filled in traced passes only.
  std::map<std::string, double> layers;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// Generates the inputs from `seed` (the same seed, the same inputs).
  virtual srp::Status Setup(uint64_t seed, const Env& env) = 0;
  virtual void RunPass(const Env& env, PassOutput* out) = 0;
};

std::vector<std::string> WorkloadNames();

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
