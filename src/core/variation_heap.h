#ifndef SRP_CORE_VARIATION_HEAP_H_
#define SRP_CORE_VARIATION_HEAP_H_

#include <cstddef>

#include <vector>

#include "core/variation.h"
#include "obs/introspect.h"

namespace srp {

/// The min-adjacent-variation heap of Section III-A1.
///
/// Built exactly once from the variations between all pairs of adjacent
/// *valid* cells (pairs involving null cells carry no attribute information
/// and are excluded; null-null merging is always permitted during extraction
/// because its variation is 0). Each re-partitioning iteration takes the
/// smallest remaining variation as the updated min-adjacent variation.
///
/// The paper's heap is only ever drained in ascending order, so it is kept
/// as one sorted array with a cursor: Build sorts once, a pop advances the
/// cursor, and PopNextGreater skips a run of duplicates with one binary
/// search instead of one sift per value.
class MinAdjacentVariationHeap {
 public:
  MinAdjacentVariationHeap() = default;

  /// Fills the array from precomputed adjacent-pair variations. When
  /// `normalized` is provided, pairs touching a null cell are excluded (their
  /// 0 / +inf variations encode mergeability, not attribute similarity).
  void Build(const PairVariations& variations,
             const GridDataset* normalized = nullptr);

  /// Inserts a single variation value in order (tests only: O(n)).
  void Push(double value);

  bool Empty() const { return next_ == sorted_.size(); }
  /// Values not yet popped.
  size_t Size() const { return sorted_.size() - next_; }

  /// Smallest variation not yet popped. Precondition: !Empty().
  double PeekMin() const;

  /// Pops and returns the smallest variation not yet popped.
  /// Precondition: !Empty().
  double PopMin();

  /// Pops until a value strictly greater than `previous` surfaces and
  /// returns it; returns false when the values run out first. This is how the
  /// Repartitioner obtains "a different min-adjacent variation that is
  /// higher than the variation … in the previous iteration" when duplicates
  /// exist.
  bool PopNextGreater(double previous, double* value);

  /// Optional introspection observer (DESIGN.md §10): Build reports the
  /// collected candidate variations (OnCandidateVariations, pre-sort scan
  /// order, so the series is thread-count independent) and every successful
  /// PopNextGreater reports the accepted value (OnHeapPop). Null disables
  /// both at the cost of one pointer test.
  void set_introspection_sink(obs::IntrospectionSink* sink) { sink_ = sink; }

 private:
  std::vector<double> sorted_;  // ascending; [next_, size) not yet popped
  size_t next_ = 0;
  obs::IntrospectionSink* sink_ = nullptr;
};

}  // namespace srp

#endif  // SRP_CORE_VARIATION_HEAP_H_
