#include "core/variation_heap.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace srp {

void MinAdjacentVariationHeap::Build(const PairVariations& variations,
                                     const GridDataset* normalized) {
  sorted_.clear();
  next_ = 0;
  const size_t rows = variations.rows;
  const size_t cols = variations.cols;
  auto pair_ok = [&](size_t r1, size_t c1, size_t r2, size_t c2) {
    return normalized == nullptr ||
           (!normalized->IsNull(r1, c1) && !normalized->IsNull(r2, c2));
  };
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols && std::isfinite(variations.Right(r, c)) &&
          pair_ok(r, c, r, c + 1)) {
        sorted_.push_back(variations.Right(r, c));
      }
      if (r + 1 < rows && std::isfinite(variations.Down(r, c)) &&
          pair_ok(r, c, r + 1, c)) {
        sorted_.push_back(variations.Down(r, c));
      }
    }
  }
  if (sink_ != nullptr) {
    sink_->OnCandidateVariations(sorted_.data(), sorted_.size());
  }
  std::sort(sorted_.begin(), sorted_.end());
}

void MinAdjacentVariationHeap::Push(double value) {
  sorted_.insert(
      std::upper_bound(sorted_.begin() + next_, sorted_.end(), value), value);
}

double MinAdjacentVariationHeap::PeekMin() const {
  SRP_CHECK(!Empty()) << "PeekMin on empty heap";
  return sorted_[next_];
}

double MinAdjacentVariationHeap::PopMin() {
  SRP_CHECK(!Empty()) << "PopMin on empty heap";
  return sorted_[next_++];
}

bool MinAdjacentVariationHeap::PopNextGreater(double previous, double* value) {
  const auto next = std::upper_bound(sorted_.begin() + next_, sorted_.end(),
                                     previous);
  if (next == sorted_.end()) {
    next_ = sorted_.size();
    return false;
  }
  *value = *next;
  next_ = static_cast<size_t>(next - sorted_.begin()) + 1;
  if (sink_ != nullptr) sink_->OnHeapPop(*value);
  return true;
}

}  // namespace srp
