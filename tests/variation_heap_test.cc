#include "core/variation_heap.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include <gtest/gtest.h>

#include "obs/introspect.h"
#include "util/random.h"

namespace srp {
namespace {

TEST(VariationHeapTest, PopsInAscendingOrder) {
  MinAdjacentVariationHeap heap;
  for (double v : {0.5, 0.1, 0.9, 0.3, 0.7}) heap.Push(v);
  std::vector<double> popped;
  while (!heap.Empty()) popped.push_back(heap.PopMin());
  EXPECT_TRUE(std::is_sorted(popped.begin(), popped.end()));
  EXPECT_EQ(popped.size(), 5u);
  EXPECT_DOUBLE_EQ(popped.front(), 0.1);
  EXPECT_DOUBLE_EQ(popped.back(), 0.9);
}

TEST(VariationHeapTest, HeapSortsRandomInput) {
  Rng rng(42);
  MinAdjacentVariationHeap heap;
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.Uniform01();
    values.push_back(v);
    heap.Push(v);
  }
  std::sort(values.begin(), values.end());
  for (double expected : values) {
    ASSERT_FALSE(heap.Empty());
    EXPECT_DOUBLE_EQ(heap.PopMin(), expected);
  }
}

TEST(VariationHeapTest, PeekDoesNotRemove) {
  MinAdjacentVariationHeap heap;
  heap.Push(2.0);
  heap.Push(1.0);
  EXPECT_DOUBLE_EQ(heap.PeekMin(), 1.0);
  EXPECT_EQ(heap.Size(), 2u);
}

TEST(VariationHeapTest, PopNextGreaterSkipsDuplicates) {
  MinAdjacentVariationHeap heap;
  for (double v : {0.1, 0.1, 0.1, 0.2, 0.2, 0.3}) heap.Push(v);
  double value = 0.0;
  ASSERT_TRUE(heap.PopNextGreater(-1.0, &value));
  EXPECT_DOUBLE_EQ(value, 0.1);
  ASSERT_TRUE(heap.PopNextGreater(value, &value));
  EXPECT_DOUBLE_EQ(value, 0.2);
  ASSERT_TRUE(heap.PopNextGreater(value, &value));
  EXPECT_DOUBLE_EQ(value, 0.3);
  EXPECT_FALSE(heap.PopNextGreater(value, &value));
}

TEST(VariationHeapTest, BuildFromGridExcludesNullPairsAndInfinities) {
  // 1x3 grid: [5, null, 10]. Both adjacent pairs touch the null cell, so the
  // heap must be empty.
  GridDataset g(1, 3, {{"a", AggType::kSum, false}});
  g.Set(0, 0, 0, 5.0);
  g.Set(0, 2, 0, 10.0);
  const PairVariations pv = ComputePairVariations(g);
  MinAdjacentVariationHeap heap;
  heap.Build(pv, &g);
  EXPECT_TRUE(heap.Empty());
}

TEST(VariationHeapTest, BuildCountsValidAdjacentPairs) {
  // Fully valid 2x2 grid has 4 adjacent pairs (2 horizontal + 2 vertical).
  GridDataset g(2, 2, {{"a", AggType::kSum, false}});
  g.Set(0, 0, 0, 1.0);
  g.Set(0, 1, 0, 2.0);
  g.Set(1, 0, 0, 3.0);
  g.Set(1, 1, 0, 4.0);
  const PairVariations pv = ComputePairVariations(g);
  MinAdjacentVariationHeap heap;
  heap.Build(pv, &g);
  EXPECT_EQ(heap.Size(), 4u);
  EXPECT_DOUBLE_EQ(heap.PopMin(), 1.0);  // smallest adjacent difference
}

TEST(VariationHeapTest, RebuildClearsPreviousContents) {
  GridDataset g(1, 2, {{"a", AggType::kSum, false}});
  g.Set(0, 0, 0, 1.0);
  g.Set(0, 1, 0, 2.0);
  const PairVariations pv = ComputePairVariations(g);
  MinAdjacentVariationHeap heap;
  heap.Push(42.0);
  heap.Build(pv, &g);
  EXPECT_EQ(heap.Size(), 1u);
}

/// Random adjacent-pair variations for a rows x cols grid, drawn from a
/// small pool so duplicates are common, with some +inf (non-mergeable)
/// pairs the build must skip.
PairVariations RandomPairVariations(size_t rows, size_t cols, Rng* rng) {
  PairVariations pv;
  pv.rows = rows;
  pv.cols = cols;
  const size_t distinct = 1 + rng->NextBounded(12);
  auto draw = [&]() {
    if (rng->Bernoulli(0.05)) return std::numeric_limits<double>::infinity();
    // Multiples of the step so that `previous + step` lands exactly on
    // stored values as well as between them.
    return 2.5e-3 * static_cast<double>(rng->NextBounded(distinct));
  };
  pv.right.resize(rows * cols);
  pv.down.resize(rows * cols);
  for (size_t i = 0; i < rows * cols; ++i) {
    pv.right[i] = draw();
    pv.down[i] = draw();
  }
  return pv;
}

/// The values Build collects, in its scan order: per cell in row-major
/// order, the finite right pair, then the finite down pair.
std::vector<double> ScanOrder(const PairVariations& pv) {
  std::vector<double> out;
  for (size_t r = 0; r < pv.rows; ++r) {
    for (size_t c = 0; c < pv.cols; ++c) {
      if (c + 1 < pv.cols && std::isfinite(pv.Right(r, c))) {
        out.push_back(pv.Right(r, c));
      }
      if (r + 1 < pv.rows && std::isfinite(pv.Down(r, c))) {
        out.push_back(pv.Down(r, c));
      }
    }
  }
  return out;
}

/// PopNextGreater on a binary min-heap, popping value by value: the
/// paper's heap, as the reference for the sorted array.
bool ReferencePopNextGreater(
    std::priority_queue<double, std::vector<double>, std::greater<>>* heap,
    double previous, double* value) {
  while (!heap->empty()) {
    const double v = heap->top();
    heap->pop();
    if (v > previous) {
      *value = v;
      return true;
    }
  }
  return false;
}

// On random multisets with many duplicates, the sorted array pops the same
// values as a binary min-heap and reports the same sizes, at the paper's
// step 0 and at the default step.
TEST(VariationHeapTest, PopNextGreaterMatchesAPriorityQueue) {
  Rng rng(2025);
  for (int trial = 0; trial < 2000; ++trial) {
    const PairVariations pv =
        RandomPairVariations(1 + rng.NextBounded(16), 1 + rng.NextBounded(16),
                             &rng);
    const std::vector<double> scanned = ScanOrder(pv);
    obs::RecordingIntrospectionSink sink;
    MinAdjacentVariationHeap heap;
    heap.set_introspection_sink(&sink);
    heap.Build(pv);
    std::priority_queue<double, std::vector<double>, std::greater<>> want(
        scanned.begin(), scanned.end());
    ASSERT_EQ(heap.Size(), want.size());

    const double step = trial % 2 == 0 ? 0.0 : 2.5e-3;
    double previous = -1.0;
    for (;;) {
      double got_value = 0.0;
      double want_value = 0.0;
      const bool got = heap.PopNextGreater(previous + step, &got_value);
      const bool expected =
          ReferencePopNextGreater(&want, previous + step, &want_value);
      ASSERT_EQ(got, expected) << "trial " << trial;
      ASSERT_EQ(heap.Size(), want.size()) << "trial " << trial;
      ASSERT_EQ(heap.Empty(), want.empty()) << "trial " << trial;
      if (!got) break;
      ASSERT_EQ(std::bit_cast<uint64_t>(got_value),
                std::bit_cast<uint64_t>(want_value))
          << "trial " << trial;
      previous = got_value;
    }
    EXPECT_TRUE(heap.Empty());
    // Every accepted value reached the sink, in pop order.
    const std::vector<double>& pops = sink.record().variation_series;
    EXPECT_TRUE(std::is_sorted(pops.begin(), pops.end()));
    EXPECT_EQ(std::adjacent_find(pops.begin(), pops.end()), pops.end());
  }
}

/// Keeps the candidate values exactly as OnCandidateVariations saw them.
class CandidateCapture : public obs::IntrospectionSink {
 public:
  void OnCandidateVariations(const double* values, size_t count) override {
    candidates.assign(values, values + count);
  }
  std::vector<double> candidates;
};

// The introspection sink sees the candidates in the build's scan order,
// before the sort, so the series does not depend on how they are stored.
TEST(VariationHeapTest, CandidatesArriveInPreSortScanOrder) {
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const PairVariations pv = RandomPairVariations(
        1 + rng.NextBounded(12), 1 + rng.NextBounded(12), &rng);
    CandidateCapture sink;
    MinAdjacentVariationHeap heap;
    heap.set_introspection_sink(&sink);
    heap.Build(pv);
    const std::vector<double> scanned = ScanOrder(pv);
    ASSERT_EQ(sink.candidates.size(), scanned.size());
    for (size_t i = 0; i < scanned.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(sink.candidates[i]),
                std::bit_cast<uint64_t>(scanned[i]))
          << "trial " << trial << ", value " << i;
    }
  }
}

// Push keeps the order after pops have advanced the cursor.
TEST(VariationHeapTest, PushAfterPopsKeepsAscendingOrder) {
  MinAdjacentVariationHeap heap;
  for (double v : {0.4, 0.2, 0.6}) heap.Push(v);
  EXPECT_DOUBLE_EQ(heap.PopMin(), 0.2);
  heap.Push(0.1);
  heap.Push(0.5);
  EXPECT_EQ(heap.Size(), 4u);
  std::vector<double> popped;
  while (!heap.Empty()) popped.push_back(heap.PopMin());
  EXPECT_EQ(popped, (std::vector<double>{0.1, 0.4, 0.5, 0.6}));
}

}  // namespace
}  // namespace srp
