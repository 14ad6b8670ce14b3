#ifndef SRP_OBS_INTROSPECT_H_
#define SRP_OBS_INTROSPECT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/json.h"

namespace srp {
namespace obs {

/// Bucket count of the candidate-pair variation histogram. Variations are
/// normalized MAPE-style values in [0, 1]; bucket i covers
/// [i/20, (i+1)/20), with 1.0 landing in the last bucket and anything
/// larger counted in `variation_overflow`.
inline constexpr size_t kVariationHistogramBuckets = 20;

/// One merge round of the homogeneous driver (DESIGN.md §10): the factor
/// tried, the IFL it produced, and whether it stayed under θ.
struct IntrospectionMergeRound {
  size_t factor = 0;
  double information_loss = 0.0;
  size_t groups = 0;
  bool accepted = false;
};

/// Everything a RecordingIntrospectionSink captures during one run. All
/// series are appended in algorithm order on the driver thread, so they are
/// bit-identical for every thread count (the determinism contract of
/// DESIGN.md §7 extends to introspection).
struct IntrospectionRecord {
  /// IFL after each evaluated candidate of Repartitioner::Run, in iteration
  /// order (accepted and the final rejected candidate alike).
  std::vector<double> ifl_series;
  /// Whether the candidate of the same index stayed under θ.
  std::vector<bool> ifl_accepted;
  /// Heap-top variation returned by each PopNextGreater extraction.
  std::vector<double> variation_series;
  /// Candidate-pair variation counts over [0, 1] in
  /// kVariationHistogramBuckets fixed buckets.
  std::vector<int64_t> variation_histogram =
      std::vector<int64_t>(kVariationHistogramBuckets, 0);
  /// Candidate-pair variations above 1 (none expected after normalization).
  int64_t variation_overflow = 0;
  /// Total candidate-pair variations seen by the histogram.
  int64_t variation_count = 0;
  /// Merge rounds of the homogeneous driver (empty for Repartitioner runs).
  std::vector<IntrospectionMergeRound> merge_rounds;

  /// The run-report "introspection" section (DESIGN.md §10).
  JsonValue ToJson() const;
};

/// Observer of the core algorithms' inner loops. All callbacks default to
/// no-ops so the null-sink fast path costs one pointer test per event; the
/// core invokes them from the driver thread only, in deterministic order,
/// and implementations must be cheap and must not re-enter the core.
class IntrospectionSink {
 public:
  virtual ~IntrospectionSink();

  /// All candidate-pair variations, in the build's scan order, before
  /// they are sorted.
  /// `values` is only valid for the duration of the call.
  virtual void OnCandidateVariations(const double* values, size_t count);

  /// A variation accepted by MinAdjacentVariationHeap::PopNextGreater.
  virtual void OnHeapPop(double variation);

  /// One Repartitioner::Run iteration: the candidate partition built at
  /// `variation` scored `information_loss`; accepted iff it stayed <= θ.
  virtual void OnIteration(size_t iteration, double variation,
                           double information_loss, size_t groups,
                           bool accepted);

  /// One homogeneous-driver merge round at `factor` x `factor`.
  virtual void OnMergeRound(size_t factor, double information_loss,
                            size_t groups, bool accepted);
};

/// IntrospectionSink that appends every event into an IntrospectionRecord.
class RecordingIntrospectionSink : public IntrospectionSink {
 public:
  void OnCandidateVariations(const double* values, size_t count) override;
  void OnHeapPop(double variation) override;
  void OnIteration(size_t iteration, double variation,
                   double information_loss, size_t groups,
                   bool accepted) override;
  void OnMergeRound(size_t factor, double information_loss, size_t groups,
                    bool accepted) override;

  const IntrospectionRecord& record() const { return record_; }
  IntrospectionRecord& mutable_record() { return record_; }

 private:
  IntrospectionRecord record_;
};

}  // namespace obs
}  // namespace srp

#endif  // SRP_OBS_INTROSPECT_H_
