// Tests for the streaming extension (paper Section VI future work):
// incremental ingestion, drift measurement, lazy refresh.

#include "stream/streaming_repartitioner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "core/information_loss.h"
#include "fail/cancellation.h"
#include "fail/fault_injection.h"
#include "grid/grid_builder.h"
#include "reference/eq3.h"
#include "util/random.h"

namespace srp {
namespace {

GeoExtent UnitExtent() { return GeoExtent{0.0, 1.0, 0.0, 1.0}; }

std::vector<GridAttributeDef> CountDef() {
  using Source = GridAttributeDef::Source;
  return {{"events", Source::kCount, -1, AggType::kSum, true}};
}

StreamingRepartitioner::Options DefaultOptions(double theta = 0.1) {
  StreamingRepartitioner::Options options;
  options.repartition.ifl_threshold = theta;
  options.repartition.min_variation_step = 1e-3;
  return options;
}

/// A batch of n records uniform over a sub-rectangle of the unit extent.
std::vector<PointRecord> UniformBatch(size_t n, double lat_lo, double lat_hi,
                                      double lon_lo, double lon_hi,
                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<PointRecord> batch(n);
  for (auto& rec : batch) {
    rec.lat = rng.Uniform(lat_lo, lat_hi);
    rec.lon = rng.Uniform(lon_lo, lon_hi);
  }
  return batch;
}

TEST(StreamingTest, IngestAccumulatesCounts) {
  StreamingRepartitioner stream(4, 4, UnitExtent(), CountDef(),
                                DefaultOptions());
  ASSERT_TRUE(stream.Ingest(UniformBatch(100, 0, 1, 0, 1, 1)).ok());
  EXPECT_EQ(stream.ingested_records(), 100u);
  ASSERT_TRUE(stream.Ingest(UniformBatch(50, 0, 1, 0, 1, 2)).ok());
  EXPECT_EQ(stream.ingested_records(), 150u);
  double total = 0.0;
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 4; ++c) {
      if (!stream.grid().IsNull(r, c)) total += stream.grid().At(r, c, 0);
    }
  }
  EXPECT_DOUBLE_EQ(total, 150.0);
}

TEST(StreamingTest, OutOfExtentRecordsDropped) {
  StreamingRepartitioner stream(2, 2, UnitExtent(), CountDef(),
                                DefaultOptions());
  std::vector<PointRecord> batch = {{0.5, 0.5, {}}, {2.0, 0.5, {}}};
  ASSERT_TRUE(stream.Ingest(batch).ok());
  EXPECT_EQ(stream.ingested_records(), 1u);
  EXPECT_EQ(stream.dropped_records(), 1u);
}

TEST(StreamingTest, FirstRefreshIsAlwaysDue) {
  StreamingRepartitioner stream(6, 6, UnitExtent(), CountDef(),
                                DefaultOptions());
  EXPECT_FALSE(stream.NeedsRefresh());  // nothing ingested yet
  ASSERT_TRUE(stream.Ingest(UniformBatch(400, 0, 1, 0, 1, 3)).ok());
  EXPECT_TRUE(stream.NeedsRefresh());
  auto refreshed = stream.MaybeRefresh();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_TRUE(*refreshed);
  EXPECT_TRUE(stream.has_partition());
  EXPECT_EQ(stream.refresh_count(), 1u);
}

TEST(StreamingTest, StableStreamDoesNotRefresh) {
  // Two statistically identical batches: after the first refresh, the
  // second batch roughly doubles every count, which for a summation
  // attribute doubles each group total too... so drift stays bounded only
  // if the partition's representatives are recomputed — they are not,
  // which is exactly what drift measures. Use a deterministic stream where
  // values do NOT change: average-aggregated attribute.
  using Source = GridAttributeDef::Source;
  std::vector<GridAttributeDef> defs = {
      {"level", Source::kAverage, 0, AggType::kAverage, false}};
  StreamingRepartitioner stream(4, 4, UnitExtent(), defs, DefaultOptions());
  auto make_batch = [](uint64_t seed) {
    Rng rng(seed);
    std::vector<PointRecord> batch;
    for (int i = 0; i < 300; ++i) {
      PointRecord rec;
      rec.lat = rng.Uniform(0, 1);
      rec.lon = rng.Uniform(0, 1);
      rec.fields = {10.0};  // constant level everywhere
      batch.push_back(rec);
    }
    return batch;
  };
  ASSERT_TRUE(stream.Ingest(make_batch(1)).ok());
  auto first = stream.MaybeRefresh();
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(*first);
  ASSERT_TRUE(stream.Ingest(make_batch(2)).ok());
  EXPECT_NEAR(stream.CurrentDrift(), 0.0, 1e-9);
  auto second = stream.MaybeRefresh();
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(*second);
  EXPECT_EQ(stream.refresh_count(), 1u);
}

TEST(StreamingTest, DistributionShiftTriggersRefresh) {
  using Source = GridAttributeDef::Source;
  std::vector<GridAttributeDef> defs = {
      {"level", Source::kAverage, 0, AggType::kAverage, false}};
  StreamingRepartitioner stream(4, 4, UnitExtent(), defs,
                                DefaultOptions(0.05));
  auto make_batch = [](double level, uint64_t seed) {
    Rng rng(seed);
    std::vector<PointRecord> batch;
    for (int i = 0; i < 400; ++i) {
      PointRecord rec;
      rec.lat = rng.Uniform(0, 1);
      rec.lon = rng.Uniform(0, 1);
      rec.fields = {level};
      batch.push_back(rec);
    }
    return batch;
  };
  ASSERT_TRUE(stream.Ingest(make_batch(10.0, 1)).ok());
  ASSERT_TRUE(stream.Refresh().ok());
  // A much larger second wave shifts the running means far from the
  // partition's representatives.
  ASSERT_TRUE(stream.Ingest(make_batch(100.0, 2)).ok());
  EXPECT_GT(stream.CurrentDrift(), 0.05);
  auto refreshed = stream.MaybeRefresh();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_TRUE(*refreshed);
  EXPECT_EQ(stream.refresh_count(), 2u);
  // After the refresh the drift is back within budget.
  EXPECT_LE(stream.CurrentDrift(), 0.05 + 1e-9);
}

TEST(StreamingTest, NewCellsAppearingCountAsDrift) {
  StreamingRepartitioner stream(4, 4, UnitExtent(), CountDef(),
                                DefaultOptions(0.1));
  // First wave covers only the west half.
  ASSERT_TRUE(stream.Ingest(UniformBatch(300, 0, 1, 0, 0.45, 5)).ok());
  ASSERT_TRUE(stream.Refresh().ok());
  // Second wave lights up the east half: those cells sit in groups that
  // were allocated as null, so their error is total.
  ASSERT_TRUE(stream.Ingest(UniformBatch(300, 0, 1, 0.55, 1.0, 6)).ok());
  EXPECT_GT(stream.CurrentDrift(), 0.1);
  EXPECT_TRUE(stream.NeedsRefresh());
}

TEST(StreamingTest, RefreshWithoutDataFails) {
  StreamingRepartitioner stream(3, 3, UnitExtent(), CountDef(),
                                DefaultOptions());
  EXPECT_FALSE(stream.Refresh().ok());
}

// The constructor checks the grid spec before sizing anything: rows * cols
// that wraps to 0 would allocate empty buffers for Ingest to index past,
// and an average without a field_index would reject every record.
TEST(StreamingDeathTest, ConstructorRejectsWrappingDimensions) {
  const size_t side = size_t{1} << 32;
  EXPECT_DEATH(
      {
        StreamingRepartitioner stream(side, side, UnitExtent(), CountDef(),
                                      DefaultOptions());
      },
      "grid dimensions exceed 1e8 cells");
}

TEST(StreamingDeathTest, ConstructorRejectsAverageWithoutFieldIndex) {
  using Source = GridAttributeDef::Source;
  const std::vector<GridAttributeDef> defs = {
      {"level", Source::kAverage, -1, AggType::kAverage, false}};
  EXPECT_DEATH(
      {
        StreamingRepartitioner stream(4, 4, UnitExtent(), defs,
                                      DefaultOptions());
      },
      "'level' needs a field_index");
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Bit-for-bit grid equality: null mask plus every attribute plane.
void ExpectSameGrid(const GridDataset& actual, const GridDataset& expected) {
  ASSERT_EQ(actual.num_cells(), expected.num_cells());
  ASSERT_EQ(actual.num_attributes(), expected.num_attributes());
  EXPECT_EQ(actual.null_mask(), expected.null_mask());
  for (size_t k = 0; k < actual.num_attributes(); ++k) {
    const auto& a = actual.AttributeValues(k);
    const auto& b = expected.AttributeValues(k);
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << "attribute " << k;
  }
}

/// Everything a rejected call must leave untouched.
struct StreamSnapshot {
  explicit StreamSnapshot(const StreamingRepartitioner& s)
      : grid(s.grid()),
        drift(Bits(s.CurrentDrift())),
        groups(s.partition().num_groups()),
        ingested(s.ingested_records()),
        dropped(s.dropped_records()),
        refreshes(s.refresh_count()) {}

  void ExpectUnchanged(const StreamingRepartitioner& s) const {
    ExpectSameGrid(s.grid(), grid);
    EXPECT_EQ(Bits(s.CurrentDrift()), drift);
    EXPECT_EQ(s.partition().num_groups(), groups);
    EXPECT_EQ(s.ingested_records(), ingested);
    EXPECT_EQ(s.dropped_records(), dropped);
    EXPECT_EQ(s.refresh_count(), refreshes);
  }

  GridDataset grid;
  uint64_t drift;
  size_t groups;
  size_t ingested;
  size_t dropped;
  size_t refreshes;
};

RunContext& Cancelled(RunContext& ctx) {
  CancellationToken token;
  token.RequestCancel();
  ctx.set_token(token);
  return ctx;
}

std::vector<GridAttributeDef> MixedDefs() {
  using Source = GridAttributeDef::Source;
  return {{"events", Source::kCount, -1, AggType::kSum, true},
          {"total", Source::kSum, 0, AggType::kSum, true},
          {"level", Source::kAverage, 1, AggType::kAverage, false}};
}

TEST(StreamingTest, NonFiniteFieldIsRejectedAndLeavesStreamIntact) {
  using Source = GridAttributeDef::Source;
  std::vector<GridAttributeDef> defs = {
      {"v", Source::kAverage, 0, AggType::kAverage, false}};
  StreamingRepartitioner stream(4, 4, UnitExtent(), defs, DefaultOptions());
  std::vector<PointRecord> batch = UniformBatch(200, 0, 1, 0, 1, 9);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].fields = {1.0 + static_cast<double>(i % 7)};
  }
  ASSERT_TRUE(stream.Ingest(batch).ok());
  ASSERT_TRUE(stream.Refresh().ok());
  const StreamSnapshot before(stream);

  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    std::vector<PointRecord> poisoned = {{0.2, 0.2, {3.0}}, {0.6, 0.7, {bad}}};
    const Status status = stream.Ingest(poisoned);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
    before.ExpectUnchanged(stream);
  }
  // The stream still measures drift and refreshes normally.
  EXPECT_TRUE(std::isfinite(stream.CurrentDrift()));
  ASSERT_TRUE(stream.Ingest({{0.6, 0.7, {50.0}}}).ok());
  EXPECT_TRUE(std::isfinite(stream.CurrentDrift()));
  EXPECT_TRUE(stream.Refresh().ok());
  // A non-finite field on a record that is dropped anyway is harmless.
  EXPECT_TRUE(
      stream.Ingest({{2.0, 0.5, {std::numeric_limits<double>::quiet_NaN()}}})
          .ok());
}

/// One random batch over the unit extent: half the in-extent records cluster
/// around a hotspot, a few fall outside the extent or carry a non-finite
/// coordinate. Field 0 is a small signed integer (so sums hit exact zeros,
/// which Eq. 3 skips); field 1 is a positive level.
std::vector<PointRecord> PropertyBatch(Rng* rng, double hot_lat,
                                       double hot_lon) {
  const auto n = static_cast<size_t>(rng->UniformInt(0, 40));
  std::vector<PointRecord> batch(n);
  for (auto& rec : batch) {
    const double u = rng->Uniform01();
    if (u < 0.08) {
      rec.lat = rng->Uniform(1.0, 2.0);  // out of extent
      rec.lon = rng->Uniform(-1.0, 1.0);
    } else if (u < 0.12) {
      rec.lat = std::numeric_limits<double>::quiet_NaN();
      rec.lon = rng->Uniform01();
    } else if (u < 0.14) {
      rec.lat = rng->Uniform01();
      rec.lon = std::numeric_limits<double>::infinity();
    } else if (u < 0.57) {
      rec.lat = std::clamp(hot_lat + rng->Normal(0.0, 0.08), 0.0, 1.0);
      rec.lon = std::clamp(hot_lon + rng->Normal(0.0, 0.08), 0.0, 1.0);
    } else {
      rec.lat = rng->Uniform01();
      rec.lon = rng->Uniform01();
    }
    rec.fields = {static_cast<double>(rng->UniformInt(-2, 2)),
                  rng->Uniform(1.0, 100.0)};
  }
  return batch;
}

TEST(StreamingTest, PropertyIncrementalStateMatchesFullRecompute) {
  constexpr size_t kRows = 19;  // three IFL shards, the last one partial
  constexpr size_t kCols = 7;
  const std::vector<GridAttributeDef> defs = MixedDefs();
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    StreamingRepartitioner stream(kRows, kCols, UnitExtent(), defs,
                                  DefaultOptions(0.08));
    std::vector<PointRecord> accepted;
    const auto check_against_full = [&] {
      auto full = BuildGridFromPoints(accepted, kRows, kCols, UnitExtent(),
                                      defs);
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      ExpectSameGrid(stream.grid(), *full);
      if (stream.has_partition()) {
        EXPECT_EQ(Bits(stream.CurrentDrift()),
                  Bits(InformationLoss(stream.grid(), stream.partition())));
        const double oracle =
            reference::InformationLoss(stream.grid(), stream.partition());
        EXPECT_LE(std::fabs(stream.CurrentDrift() - oracle),
                  1e-12 * std::fabs(oracle));
      } else {
        EXPECT_EQ(stream.CurrentDrift(), 0.0);
      }
    };

    for (int step = 0; step < 40; ++step) {
      // The hotspot walks across the extent over the stream.
      const double t = static_cast<double>(step) / 40.0;
      std::vector<PointRecord> batch =
          PropertyBatch(&rng, 0.15 + 0.7 * t, 0.8 - 0.6 * t);

      switch (rng.UniformInt(0, 9)) {
        case 0: {  // arity: one record misses the level field
          if (batch.empty()) break;
          const StreamSnapshot snap(stream);
          std::vector<PointRecord> bad = batch;
          bad.back() = {0.5, 0.5, {1.0}};
          EXPECT_EQ(stream.Ingest(bad).code(), StatusCode::kInvalidArgument);
          snap.ExpectUnchanged(stream);
          break;
        }
        case 1: {  // non-finite field
          const StreamSnapshot snap(stream);
          std::vector<PointRecord> bad = batch;
          bad.push_back({0.5, 0.5, {std::nan(""), 1.0}});
          EXPECT_EQ(stream.Ingest(bad).code(), StatusCode::kInvalidArgument);
          snap.ExpectUnchanged(stream);
          break;
        }
        case 2: {  // injected fault
          const StreamSnapshot snap(stream);
          ScopedFault fault("stream.ingest", FaultKind::kError, 1);
          ASSERT_TRUE(fault.status().ok());
          EXPECT_FALSE(stream.Ingest(batch).ok());
          snap.ExpectUnchanged(stream);
          break;
        }
        case 3: {  // interrupt
          const StreamSnapshot snap(stream);
          RunContext ctx;
          EXPECT_EQ(stream.Ingest(batch, &Cancelled(ctx)).code(),
                    StatusCode::kCancelled);
          snap.ExpectUnchanged(stream);
          break;
        }
        default:
          break;
      }

      ASSERT_TRUE(stream.Ingest(batch).ok());
      for (const auto& rec : batch) accepted.push_back(rec);
      check_against_full();

      if (stream.has_partition() && rng.UniformInt(0, 5) == 0) {
        // A strict interrupt fails the refresh and keeps everything.
        const StreamSnapshot snap(stream);
        RunContext ctx;
        EXPECT_EQ(stream.Refresh(&Cancelled(ctx)).code(),
                  StatusCode::kCancelled);
        snap.ExpectUnchanged(stream);
      }
      auto refreshed = stream.MaybeRefresh();
      ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
      if (*refreshed) {
        // Right after a refresh the drift is Eq. 3 of the new partition.
        EXPECT_EQ(Bits(stream.CurrentDrift()),
                  Bits(InformationLoss(stream.grid(), stream.partition())));
        EXPECT_FALSE(stream.NeedsRefresh());
      }
    }
    EXPECT_GT(stream.refresh_count(), 1u);
    EXPECT_GT(stream.dropped_records(), 0u);
  }
}

}  // namespace
}  // namespace srp
