// Micro benchmarks (google-benchmark) of the core re-partitioning operators:
// normalization, pair-variation precomputation, heap construction and
// drain, cell-group extraction, feature allocation, IFL and adjacency-list
// construction.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/adjacency.h"
#include "core/extractor.h"
#include "core/feature_allocator.h"
#include "core/ifl_engine.h"
#include "core/information_loss.h"
#include "core/kernels/kernels.h"
#include "core/variation.h"
#include "core/variation_heap.h"
#include "grid/normalize.h"
#include "obs/journal.h"
#include "parallel/thread_pool.h"
#include "util/logging.h"

namespace srp {
namespace bench {
namespace {

/// Thread counts compared by the *Threads benchmarks: sequential vs. the
/// machine (or SRP_THREADS). items/sec in the report is cells/sec.
int64_t MaxThreads() {
  return static_cast<int64_t>(ResolveThreadCount(0));
}

void ThreadsComparisonArgs(benchmark::internal::Benchmark* b) {
  for (int64_t side : {64, 128}) {
    b->Args({side, 1});
    if (MaxThreads() > 1) b->Args({side, MaxThreads()});
  }
}

GridDataset GridForSize(int64_t side) {
  GridTier tier{"micro", static_cast<size_t>(side), static_cast<size_t>(side)};
  return MakeBenchDataset(DatasetKind::kHomeSalesMulti, tier);
}

void BM_AttributeNormalize(benchmark::State& state) {
  const GridDataset grid = GridForSize(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(AttributeNormalized(grid));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(grid.num_cells()));
}
BENCHMARK(BM_AttributeNormalize)->Arg(32)->Arg(64)->Arg(96);

void BM_PairVariations(benchmark::State& state) {
  const GridDataset norm = AttributeNormalized(GridForSize(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputePairVariations(norm));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(norm.num_cells()));
}
BENCHMARK(BM_PairVariations)->Arg(32)->Arg(64)->Arg(96);

void BM_HeapBuild(benchmark::State& state) {
  const GridDataset norm = AttributeNormalized(GridForSize(state.range(0)));
  const PairVariations variations = ComputePairVariations(norm);
  for (auto _ : state) {
    MinAdjacentVariationHeap heap;
    heap.Build(variations, &norm);
    benchmark::DoNotOptimize(heap.Size());
  }
}
BENCHMARK(BM_HeapBuild)->Arg(32)->Arg(64)->Arg(96);

/// Build plus a full drain at the default step (2.5e-3), the way the loop
/// consumes the min-adjacent variations: sorting moves the cost out of the
/// pops and into the build, and this measures both sides together.
/// items/sec is pops/sec.
void BM_VariationDrain(benchmark::State& state) {
  const GridDataset norm = AttributeNormalized(GridForSize(state.range(0)));
  const PairVariations variations = ComputePairVariations(norm);
  int64_t pops = 0;
  for (auto _ : state) {
    MinAdjacentVariationHeap heap;
    heap.Build(variations, &norm);
    double previous = -1.0;
    double value = 0.0;
    while (heap.PopNextGreater(previous + 2.5e-3, &value)) {
      previous = value;
      ++pops;
    }
    benchmark::DoNotOptimize(previous);
  }
  state.SetItemsProcessed(pops);
}
BENCHMARK(BM_VariationDrain)->Arg(32)->Arg(64)->Arg(96);

void BM_CellGroupExtraction(benchmark::State& state) {
  const GridDataset norm = AttributeNormalized(GridForSize(state.range(0)));
  const PairVariations variations = ComputePairVariations(norm);
  const CellGroupExtractor extractor(variations);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(0.02));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(norm.num_cells()));
}
BENCHMARK(BM_CellGroupExtraction)->Arg(32)->Arg(64)->Arg(96);

void BM_FeatureAllocation(benchmark::State& state) {
  const GridDataset grid = GridForSize(state.range(0));
  const GridDataset norm = AttributeNormalized(grid);
  const PairVariations variations = ComputePairVariations(norm);
  const Partition base = CellGroupExtractor(variations).Extract(0.02);
  for (auto _ : state) {
    Partition p = base;
    benchmark::DoNotOptimize(AllocateFeatures(grid, &p));
  }
}
BENCHMARK(BM_FeatureAllocation)->Arg(32)->Arg(64)->Arg(96);

void BM_InformationLoss(benchmark::State& state) {
  const GridDataset grid = GridForSize(state.range(0));
  const GridDataset norm = AttributeNormalized(grid);
  const PairVariations variations = ComputePairVariations(norm);
  Partition p = CellGroupExtractor(variations).Extract(0.02);
  (void)AllocateFeatures(grid, &p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(InformationLoss(grid, p));
  }
}
BENCHMARK(BM_InformationLoss)->Arg(32)->Arg(64)->Arg(96);

/// Second arg selects the forced SimdLevel (0 = scalar, 1 = avx2; an
/// unsupported request degrades to scalar inside the dispatcher).
kernels::SimdLevel LevelArg(int64_t arg) {
  return arg == 0 ? kernels::SimdLevel::kScalar : kernels::SimdLevel::kAvx2;
}

void SimdComparisonArgs(benchmark::internal::Benchmark* b) {
  for (int64_t side : {64, 128}) {
    b->Args({side, 0});
    b->Args({side, 1});
  }
}

void BM_PairVariationsSimd(benchmark::State& state) {
  const GridDataset norm = AttributeNormalized(GridForSize(state.range(0)));
  kernels::ScopedSimdLevel forced(LevelArg(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputePairVariations(norm));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(norm.num_cells()));
}
BENCHMARK(BM_PairVariationsSimd)->Apply(SimdComparisonArgs);

void BM_InformationLossSimd(benchmark::State& state) {
  const GridDataset grid = GridForSize(state.range(0));
  const GridDataset norm = AttributeNormalized(grid);
  const PairVariations variations = ComputePairVariations(norm);
  Partition p = CellGroupExtractor(variations).Extract(0.02);
  (void)AllocateFeatures(grid, &p);
  kernels::ScopedSimdLevel forced(LevelArg(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(InformationLoss(grid, p));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(grid.num_cells()));
}
BENCHMARK(BM_InformationLossSimd)->Apply(SimdComparisonArgs);

/// Steady-state incremental extract+allocate+IFL update between two
/// alternating near-identical thresholds — the repartition loop's
/// per-iteration pattern. items/sec is nominal grid cells/sec; the gap to
/// BM_InformationLossSimd is the incremental win (only the window and its
/// dirty row shards recompute).
void BM_IncrementalIflUpdate(benchmark::State& state) {
  const GridDataset grid = GridForSize(state.range(0));
  const GridDataset norm = AttributeNormalized(grid);
  const PairVariations variations = ComputePairVariations(norm);
  CellGroupExtractor extractor(variations);
  IflEngine engine(grid);
  Partition partition;
  // A tiny threshold step: the two extractions re-tile almost the whole
  // grid identically, so only the window and the few row shards holding
  // it are recomputed — the repartition loop's actual steady state (check
  // the dirty_shards counter stays well under total_shards).
  size_t flip = 0;
  const auto update = [&] {
    const double t = (flip ^= 1) != 0 ? 0.0201 : 0.02;
    const ExtractionWindow window = extractor.ExtractInto(t, &partition);
    SRP_CHECK_OK(engine.AllocateWindow(&partition, window, nullptr, nullptr));
    return engine.ComputeInformationLoss(partition, window, nullptr, nullptr);
  };
  update();
  update();
  for (auto _ : state) {
    benchmark::DoNotOptimize(update());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(grid.num_cells()));
  state.counters["dirty_shards"] =
      static_cast<double>(engine.last_dirty_shards());
  state.counters["total_shards"] = static_cast<double>(engine.num_shards());
}
BENCHMARK(BM_IncrementalIflUpdate)->Arg(64)->Arg(128);

void BM_PairVariationsThreads(benchmark::State& state) {
  const GridDataset norm = AttributeNormalized(GridForSize(state.range(0)));
  const std::unique_ptr<ThreadPool> pool =
      MaybeMakePool(static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputePairVariations(norm, pool.get()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(norm.num_cells()));
}
BENCHMARK(BM_PairVariationsThreads)->Apply(ThreadsComparisonArgs);

void BM_FeatureAllocationThreads(benchmark::State& state) {
  const GridDataset grid = GridForSize(state.range(0));
  const GridDataset norm = AttributeNormalized(grid);
  const PairVariations variations = ComputePairVariations(norm);
  const Partition base = CellGroupExtractor(variations).Extract(0.02);
  const std::unique_ptr<ThreadPool> pool =
      MaybeMakePool(static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    Partition p = base;
    benchmark::DoNotOptimize(AllocateFeatures(grid, &p, pool.get()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(grid.num_cells()));
}
BENCHMARK(BM_FeatureAllocationThreads)->Apply(ThreadsComparisonArgs);

void BM_InformationLossThreads(benchmark::State& state) {
  const GridDataset grid = GridForSize(state.range(0));
  const GridDataset norm = AttributeNormalized(grid);
  const PairVariations variations = ComputePairVariations(norm);
  Partition p = CellGroupExtractor(variations).Extract(0.02);
  (void)AllocateFeatures(grid, &p);
  const std::unique_ptr<ThreadPool> pool =
      MaybeMakePool(static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(InformationLoss(grid, p, pool.get()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(grid.num_cells()));
}
BENCHMARK(BM_InformationLossThreads)->Apply(ThreadsComparisonArgs);

void BM_FullRepartitionThreads(benchmark::State& state) {
  const GridDataset grid = GridForSize(state.range(0));
  RepartitionOptions options = BenchRepartitionOptions(0.1);
  options.num_threads = static_cast<size_t>(state.range(1));
  const Repartitioner repartitioner(options);
  for (auto _ : state) {
    auto result = repartitioner.Run(grid);
    SRP_CHECK(result.ok()) << result.status().ToString();
    benchmark::DoNotOptimize(result->information_loss);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(grid.num_cells()));
}
BENCHMARK(BM_FullRepartitionThreads)
    ->Apply(ThreadsComparisonArgs)
    ->Unit(benchmark::kMillisecond);

void BM_AdjacencyList(benchmark::State& state) {
  const GridDataset grid = GridForSize(state.range(0));
  const GridDataset norm = AttributeNormalized(grid);
  const PairVariations variations = ComputePairVariations(norm);
  const Partition p = CellGroupExtractor(variations).Extract(0.02);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildAdjacencyList(p));
  }
}
BENCHMARK(BM_AdjacencyList)->Arg(32)->Arg(64)->Arg(96);

void BM_FullRepartition(benchmark::State& state) {
  const GridDataset grid = GridForSize(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MustRepartition(grid, 0.1));
  }
}
BENCHMARK(BM_FullRepartition)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

// Flight-recorder journal overhead (DESIGN.md §11): one Append is the unit
// cost every journaled milestone pays (phase changes, log records, faults).
// The recorder ships always-on, so this bounds what "always-on" costs —
// tens of nanoseconds, far below the run-to-run noise of the operator
// benchmarks above.
void BM_JournalAppend(benchmark::State& state) {
  for (auto _ : state) {
    obs::Journal::Append(obs::JournalEventKind::kLog, 1,
                         "journal overhead probe");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_JournalAppend);

void BM_JournalPhaseFlip(benchmark::State& state) {
  bool flip = false;
  for (auto _ : state) {
    obs::Journal::SetPhase(flip ? "bench.phase_a" : "bench.phase_b");
    flip = !flip;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_JournalPhaseFlip);

}  // namespace
}  // namespace bench
}  // namespace srp

// Expanded BENCHMARK_MAIN() so the ObsSession (SRP_TRACE_OUT artifact,
// BENCH_micro_core_ops.json) brackets the benchmark run and the core
// throughput rows are added after the measured run.
int main(int argc, char** argv) {
  srp::bench::ObsSession obs("micro_core_ops");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Core-operator throughput rows for BENCH_micro_core_ops.json, under
  // row keys that stay stable across commits.
  srp::bench::AddCorePerfBenchRows();
  return 0;
}
