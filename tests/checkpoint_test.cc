// Tests for durable checkpoint/resume (DESIGN.md §13): bit-exact on-disk
// round-trips, crash-consistency under injected write/fsync/rename faults
// and post-rename truncation, bounded retry with an injectable clock, and —
// the contract the whole subsystem exists for — that a run resumed from any
// committed snapshot (periodic, interrupt-time, or recovered after SIGKILL)
// finishes bit-identically to the uninterrupted run at every thread count
// and SIMD tier.
//
// Suite names deliberately avoid the TSan CI filter's substrings: the
// kill–resume test forks and fork()-then-SIGKILL is not supportable under
// TSan.

#include "fail/checkpoint.h"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/kernels/kernels.h"
#include "core/repartitioner.h"
#include "fail/cancellation.h"
#include "fail/fault_injection.h"
#include "grid/grid_dataset.h"
#include "obs/introspect.h"
#include "obs/journal.h"

namespace srp {
namespace {

/// A grid with enough variation structure to sustain ~40 coarsening
/// iterations — the smooth r+c ramp collapses in 2, far too few to place a
/// checkpoint strictly inside the run.
GridDataset BumpyGrid(size_t rows, size_t cols) {
  GridDataset g(rows, cols, {{"a", AggType::kAverage, false}});
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      g.Set(r, c, 0,
            100.0 + static_cast<double>((r * 31 + c * 17 + (r * c) % 7) % 23));
    }
  }
  return g;
}

RepartitionOptions BaseOptions() {
  RepartitionOptions options;
  options.ifl_threshold = 0.1;
  options.num_threads = 1;
  return options;
}

/// CheckpointSink that keeps every snapshot (the struct owns copies, so
/// holding on to them is within the OnCheckpoint contract).
class RecordingSink : public CheckpointSink {
 public:
  Status OnCheckpoint(const RepartitionCheckpoint& state,
                      SnapshotReason reason) override {
    snapshots.push_back(state);
    reasons.push_back(reason);
    return Status::OK();
  }

  std::vector<RepartitionCheckpoint> snapshots;
  std::vector<CheckpointSink::SnapshotReason> reasons;
};

bool BitsEq(double a, double b) {
  uint64_t ba = 0;
  uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

/// Bit-level equality of two run results — not EXPECT_DOUBLE_EQ, the actual
/// resume contract: identical IEEE-754 bits everywhere.
void ExpectBitIdentical(const RepartitionResult& want,
                        const RepartitionResult& got) {
  EXPECT_EQ(want.iterations, got.iterations);
  EXPECT_TRUE(BitsEq(want.information_loss, got.information_loss))
      << want.information_loss << " vs " << got.information_loss;
  EXPECT_TRUE(BitsEq(want.final_min_adjacent_variation,
                     got.final_min_adjacent_variation));
  EXPECT_EQ(want.partition.rows, got.partition.rows);
  EXPECT_EQ(want.partition.cols, got.partition.cols);
  EXPECT_TRUE(want.partition.groups == got.partition.groups);
  EXPECT_TRUE(want.partition.cell_to_group == got.partition.cell_to_group);
  EXPECT_TRUE(want.partition.group_null == got.partition.group_null);
  EXPECT_TRUE(want.partition.group_valid_count ==
              got.partition.group_valid_count);
  ASSERT_EQ(want.partition.features.size(), got.partition.features.size());
  for (size_t g = 0; g < want.partition.features.size(); ++g) {
    ASSERT_EQ(want.partition.features[g].size(),
              got.partition.features[g].size())
        << g;
    for (size_t k = 0; k < want.partition.features[g].size(); ++k) {
      EXPECT_TRUE(
          BitsEq(want.partition.features[g][k], got.partition.features[g][k]))
          << "group " << g << " attr " << k;
    }
  }
}

/// Fresh empty directory under the test temp root.
std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Runs the repartitioner with checkpoint_every=1 and returns all periodic
/// snapshots (one per accepted iteration) plus the final result.
std::vector<RepartitionCheckpoint> SnapshotEveryIteration(
    const GridDataset& grid, RepartitionResult* final_result) {
  RecordingSink sink;
  RepartitionOptions options = BaseOptions();
  options.checkpoint = &sink;
  options.checkpoint_every = 1;
  auto result = Repartitioner(options).Run(grid);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok() && final_result != nullptr) *final_result = *result;
  return sink.snapshots;
}

/// One mid-run snapshot wrapped as the durable layer stores it.
StoredCheckpoint MakeStored(const GridDataset& grid) {
  StoredCheckpoint stored;
  std::vector<RepartitionCheckpoint> snapshots =
      SnapshotEveryIteration(grid, nullptr);
  EXPECT_GE(snapshots.size(), 3u);
  if (!snapshots.empty()) stored.state = snapshots[snapshots.size() / 2];
  stored.grid_fingerprint = GridFingerprint(grid);
  stored.options_fingerprint = OptionsFingerprint(BaseOptions());
  return stored;
}

/// RetryClock that records requested sleeps instead of performing them.
class FakeRetryClock : public RetryClock {
 public:
  void SleepMillis(uint64_t millis) override { sleeps.push_back(millis); }
  std::vector<uint64_t> sleeps;
};

/// Disarms the process-wide injector on scope exit, so a failing assertion
/// cannot leak armed checkpoint faults into later tests.
struct DisarmOnExit {
  ~DisarmOnExit() { FaultInjector::Get().Disarm(); }
};

TEST(CheckpointTest, Crc32MatchesTheReferenceVectorAndChains) {
  // The canonical CRC-32 check value ("123456789" -> 0xCBF43926).
  const char* digits = "123456789";
  EXPECT_EQ(Crc32(digits, 9), 0xCBF43926u);
  // Seedable: hashing a split buffer in two calls equals one pass.
  EXPECT_EQ(Crc32(digits + 4, 5, Crc32(digits, 4)), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(CheckpointTest, GridFingerprintTracksContentNotIdentity) {
  const GridDataset a = BumpyGrid(8, 8);
  const GridDataset b = BumpyGrid(8, 8);
  EXPECT_EQ(GridFingerprint(a), GridFingerprint(b));

  GridDataset changed = BumpyGrid(8, 8);
  changed.Set(3, 3, 0, 999.0);
  EXPECT_NE(GridFingerprint(a), GridFingerprint(changed));

  EXPECT_NE(GridFingerprint(a), GridFingerprint(BumpyGrid(8, 9)));
}

TEST(CheckpointTest, OptionsFingerprintCoversOnlyMergeRelevantKnobs) {
  RepartitionOptions base = BaseOptions();
  const uint64_t fp = OptionsFingerprint(base);

  // Excluded knobs: a resumed run may extend the budget, change thread
  // count or snapshot cadence — results are bit-identical regardless.
  RepartitionOptions tweaked = base;
  tweaked.max_iterations = 7;
  tweaked.num_threads = 8;
  tweaked.checkpoint_every = 3;
  EXPECT_EQ(fp, OptionsFingerprint(tweaked));

  RepartitionOptions different_theta = base;
  different_theta.ifl_threshold = 0.2;
  EXPECT_NE(fp, OptionsFingerprint(different_theta));

  RepartitionOptions different_step = base;
  different_step.min_variation_step = 0.01;
  EXPECT_NE(fp, OptionsFingerprint(different_step));
}

TEST(CheckpointTest, FileRoundTripIsBitExact) {
  const GridDataset grid = BumpyGrid(8, 8);
  const StoredCheckpoint stored = MakeStored(grid);
  const std::string path = FreshDir("ckpt_roundtrip") + "/state.srpckpt";

  ASSERT_TRUE(WriteCheckpointFile(path, stored).ok());
  auto loaded = ReadCheckpointFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->grid_fingerprint, stored.grid_fingerprint);
  EXPECT_EQ(loaded->options_fingerprint, stored.options_fingerprint);
  EXPECT_EQ(loaded->state.generation, stored.state.generation);
  EXPECT_EQ(loaded->state.iterations, stored.state.iterations);
  EXPECT_TRUE(
      BitsEq(loaded->state.previous_variation, stored.state.previous_variation));
  EXPECT_TRUE(
      BitsEq(loaded->state.information_loss, stored.state.information_loss));
  EXPECT_TRUE(BitsEq(loaded->state.final_min_adjacent_variation,
                     stored.state.final_min_adjacent_variation));
  EXPECT_TRUE(loaded->state.partition.groups == stored.state.partition.groups);
  EXPECT_TRUE(loaded->state.partition.cell_to_group ==
              stored.state.partition.cell_to_group);
  ASSERT_EQ(loaded->state.partition.features.size(),
            stored.state.partition.features.size());
  for (size_t g = 0; g < stored.state.partition.features.size(); ++g) {
    for (size_t k = 0; k < stored.state.partition.features[g].size(); ++k) {
      EXPECT_TRUE(BitsEq(loaded->state.partition.features[g][k],
                         stored.state.partition.features[g][k]));
    }
  }
  EXPECT_TRUE(loaded->state.ValidateFor(grid).ok());
}

TEST(CheckpointTest, ReadRejectsMissingAndNonCheckpointFiles) {
  const std::string dir = FreshDir("ckpt_badfiles");
  EXPECT_FALSE(ReadCheckpointFile(dir + "/absent.srpckpt").ok());

  const std::string garbage = dir + "/garbage.srpckpt";
  std::ofstream(garbage) << "definitely not a checkpoint";
  auto loaded = ReadCheckpointFile(garbage);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("bad magic"), std::string::npos)
      << loaded.status().ToString();
}

TEST(CheckpointTest, FileNamesAreFixedWidthAndListingSkipsJunk) {
  EXPECT_EQ(CheckpointFileName(7), "ckpt-000000000007.srpckpt");
  EXPECT_EQ(CheckpointFileName(123456), "ckpt-000000123456.srpckpt");

  const std::string dir = FreshDir("ckpt_listing");
  const StoredCheckpoint stored = MakeStored(BumpyGrid(8, 8));
  ASSERT_TRUE(WriteCheckpointFile(CheckpointFilePath(dir, 3), stored).ok());
  ASSERT_TRUE(WriteCheckpointFile(CheckpointFilePath(dir, 1), stored).ok());
  std::ofstream(dir + "/README") << "junk";
  std::ofstream(dir + "/ckpt-bad.srpckpt") << "junk";
  std::ofstream(dir + "/ckpt-000000000002.srpckpt.tmp") << "junk";

  const auto files = ListCheckpointFiles(dir);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].first, 1u);
  EXPECT_EQ(files[1].first, 3u);

  EXPECT_TRUE(ListCheckpointFiles(dir + "/no_such_subdir").empty());
  EXPECT_EQ(LoadLatestCheckpoint(FreshDir("ckpt_empty")).status().code(),
            StatusCode::kNotFound);
}

TEST(CheckpointTest, WriterAssignsMonotonicGenerationsAndPrunes) {
  const std::string dir = FreshDir("ckpt_writer");
  const GridDataset grid = BumpyGrid(8, 8);
  const StoredCheckpoint stored = MakeStored(grid);

  CheckpointWriter::Options wopt;
  wopt.directory = dir;
  wopt.keep_generations = 2;
  CheckpointWriter writer(wopt);
  EXPECT_EQ(writer.OnCheckpoint(stored.state,
                                CheckpointSink::SnapshotReason::kPeriodic)
                .code(),
            StatusCode::kFailedPrecondition)
      << "OnCheckpoint before Init must fail";

  ASSERT_TRUE(writer.Init().ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(writer
                    .OnCheckpoint(stored.state,
                                  CheckpointSink::SnapshotReason::kPeriodic)
                    .ok());
  }
  EXPECT_EQ(writer.latest_generation(), 2);
  EXPECT_EQ(writer.writes(), 3u);
  EXPECT_EQ(obs::Journal::checkpoint_generation(), 2);

  // keep_generations=2 pruned generation 0.
  const auto files = ListCheckpointFiles(dir);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].first, 1u);
  EXPECT_EQ(files[1].first, 2u);

  // A new writer on the same directory (the resume scenario) continues
  // strictly above what is already durable.
  CheckpointWriter second(wopt);
  ASSERT_TRUE(second.Init().ok());
  ASSERT_TRUE(second
                  .OnCheckpoint(stored.state,
                                CheckpointSink::SnapshotReason::kInterrupt)
                  .ok());
  EXPECT_EQ(second.latest_generation(), 3);

  // The stored generation matches the file that carries it.
  auto latest = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->state.generation, 3u);
}

TEST(CheckpointTest, InjectedIoFaultsLeaveThePreviousGenerationIntact) {
  const GridDataset grid = BumpyGrid(8, 8);
  const StoredCheckpoint stored = MakeStored(grid);

  for (const char* point :
       {"checkpoint.write", "checkpoint.fsync", "checkpoint.rename"}) {
    SCOPED_TRACE(point);
    DisarmOnExit disarm;
    const std::string dir = FreshDir("ckpt_atomic");

    FakeRetryClock clock;
    CheckpointWriter::Options wopt;
    wopt.directory = dir;
    wopt.max_attempts = 1;
    wopt.clock = &clock;
    wopt.grid_fingerprint = GridFingerprint(grid);
    CheckpointWriter writer(wopt);
    ASSERT_TRUE(writer.Init().ok());
    ASSERT_TRUE(writer
                    .OnCheckpoint(stored.state,
                                  CheckpointSink::SnapshotReason::kPeriodic)
                    .ok());

    ASSERT_TRUE(FaultInjector::Get()
                    .ArmFromSpec(std::string(point) + ":error:1")
                    .ok());
    const Status failed = writer.OnCheckpoint(
        stored.state, CheckpointSink::SnapshotReason::kPeriodic);
    EXPECT_FALSE(failed.ok());
    EXPECT_NE(failed.ToString().find("injected fault"), std::string::npos);
    EXPECT_EQ(writer.failed_attempts(), 1u);

    // The failed attempt left no temp litter and generation 0 untouched.
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      EXPECT_EQ(entry.path().filename().string(), CheckpointFileName(0));
    }
    auto survivor = LoadLatestCheckpoint(dir);
    ASSERT_TRUE(survivor.ok()) << survivor.status().ToString();
    EXPECT_EQ(survivor->state.generation, 0u);
    EXPECT_EQ(survivor->grid_fingerprint, GridFingerprint(grid));
  }
}

TEST(CheckpointTest, BoundedRetryBacksOffAndSucceedsPastTransientFaults) {
  DisarmOnExit disarm;
  const std::string dir = FreshDir("ckpt_retry_ok");
  const StoredCheckpoint stored = MakeStored(BumpyGrid(8, 8));

  // Two consecutive write failures (the ascending-nth multi-spec idiom),
  // three attempts allowed: the third lands.
  ASSERT_TRUE(FaultInjector::Get()
                  .ArmFromSpec("checkpoint.write:error:1,checkpoint.write:error:2")
                  .ok());
  FakeRetryClock clock;
  CheckpointWriter::Options wopt;
  wopt.directory = dir;
  wopt.max_attempts = 3;
  wopt.backoff_millis = 10;
  wopt.clock = &clock;
  CheckpointWriter writer(wopt);
  ASSERT_TRUE(writer.Init().ok());
  ASSERT_TRUE(writer
                  .OnCheckpoint(stored.state,
                                CheckpointSink::SnapshotReason::kPeriodic)
                  .ok());
  EXPECT_EQ(writer.failed_attempts(), 2u);
  EXPECT_EQ(writer.writes(), 1u);
  EXPECT_EQ(FaultInjector::Get().fired_count(), 2u);
  // Exponential backoff between attempts: 10ms, then 20ms.
  EXPECT_EQ(clock.sleeps, (std::vector<uint64_t>{10, 20}));
  EXPECT_TRUE(LoadLatestCheckpoint(dir).ok());
}

TEST(CheckpointTest, RetryExhaustionSurfacesTheLastError) {
  DisarmOnExit disarm;
  const std::string dir = FreshDir("ckpt_retry_exhaust");
  const StoredCheckpoint stored = MakeStored(BumpyGrid(8, 8));

  ASSERT_TRUE(FaultInjector::Get()
                  .ArmFromSpec("checkpoint.write:error:1,"
                               "checkpoint.write:error:2,"
                               "checkpoint.write:error:3")
                  .ok());
  FakeRetryClock clock;
  CheckpointWriter::Options wopt;
  wopt.directory = dir;
  wopt.max_attempts = 3;
  wopt.backoff_millis = 10;
  wopt.clock = &clock;
  CheckpointWriter writer(wopt);
  ASSERT_TRUE(writer.Init().ok());
  const Status failed = writer.OnCheckpoint(
      stored.state, CheckpointSink::SnapshotReason::kPeriodic);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.ToString().find("injected fault"), std::string::npos);
  EXPECT_EQ(writer.failed_attempts(), 3u);
  EXPECT_EQ(writer.writes(), 0u);
  EXPECT_EQ(clock.sleeps.size(), 2u) << "no sleep after the final attempt";
  EXPECT_EQ(LoadLatestCheckpoint(dir).status().code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, PostRenameTruncationIsCaughtByCrcAndFallsBack) {
  DisarmOnExit disarm;
  const std::string dir = FreshDir("ckpt_torn");
  const GridDataset grid = BumpyGrid(8, 8);
  const StoredCheckpoint stored = MakeStored(grid);

  CheckpointWriter::Options wopt;
  wopt.directory = dir;
  CheckpointWriter writer(wopt);
  ASSERT_TRUE(writer.Init().ok());
  ASSERT_TRUE(writer
                  .OnCheckpoint(stored.state,
                                CheckpointSink::SnapshotReason::kPeriodic)
                  .ok());

  // The torn-write simulation: the write "succeeds" (the disk lied), but
  // the renamed generation 1 is chopped in half.
  ASSERT_TRUE(
      FaultInjector::Get().ArmFromSpec("checkpoint.truncate:error:1").ok());
  ASSERT_TRUE(writer
                  .OnCheckpoint(stored.state,
                                CheckpointSink::SnapshotReason::kPeriodic)
                  .ok());
  EXPECT_EQ(FaultInjector::Get().fired_count(), 1u);

  auto torn = ReadCheckpointFile(CheckpointFilePath(dir, 1));
  ASSERT_FALSE(torn.ok());
  // Depending on where the cut lands, the reader reports either a section
  // framing overrun or a CRC mismatch — both name the torn section.
  EXPECT_TRUE(torn.status().message().find("torn or corrupt") !=
                  std::string::npos ||
              torn.status().message().find("truncated") != std::string::npos ||
              torn.status().message().find("overruns") != std::string::npos)
      << torn.status().ToString();

  // LoadLatestCheckpoint degrades to the previous durable generation.
  auto recovered = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->state.generation, 0u);
}

TEST(CheckpointTest, ValidateStoredCheckpointPinsDatasetAndOptions) {
  const GridDataset grid = BumpyGrid(8, 8);
  const RepartitionOptions options = BaseOptions();
  StoredCheckpoint stored = MakeStored(grid);

  EXPECT_TRUE(ValidateStoredCheckpoint(stored, grid, options).ok());

  StoredCheckpoint wrong_grid = stored;
  wrong_grid.grid_fingerprint ^= 1;
  const Status grid_status = ValidateStoredCheckpoint(wrong_grid, grid, options);
  ASSERT_FALSE(grid_status.ok());
  EXPECT_EQ(grid_status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(grid_status.message().find("different dataset"), std::string::npos);

  StoredCheckpoint wrong_options = stored;
  wrong_options.options_fingerprint ^= 1;
  const Status opt_status =
      ValidateStoredCheckpoint(wrong_options, grid, options);
  ASSERT_FALSE(opt_status.ok());
  EXPECT_EQ(opt_status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(opt_status.message().find("options"), std::string::npos);

  // And the structural check: a snapshot from another grid shape.
  EXPECT_FALSE(stored.state.ValidateFor(BumpyGrid(6, 6)).ok());
}

TEST(CheckpointTest, CheckpointEveryWithoutASinkIsRejected) {
  RepartitionOptions options = BaseOptions();
  options.checkpoint_every = 4;
  auto result = Repartitioner(options).Run(BumpyGrid(8, 8));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, ResumeRejectsASnapshotFromAnotherGrid) {
  std::vector<RepartitionCheckpoint> snapshots =
      SnapshotEveryIteration(BumpyGrid(8, 8), nullptr);
  ASSERT_GE(snapshots.size(), 1u);
  RepartitionOptions options = BaseOptions();
  options.resume_from = &snapshots.front();
  auto result = Repartitioner(options).Run(BumpyGrid(12, 12));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, ResumeFromAnySnapshotMatchesTheUninterruptedRun) {
  const GridDataset grid = BumpyGrid(12, 12);
  RepartitionResult reference;
  std::vector<RepartitionCheckpoint> snapshots =
      SnapshotEveryIteration(grid, &reference);
  ASSERT_EQ(snapshots.size(), reference.iterations);
  ASSERT_GE(snapshots.size(), 10u);

  // First, middle and last committed snapshots, single-threaded scalar.
  for (size_t index : {size_t(0), snapshots.size() / 2, snapshots.size() - 1}) {
    SCOPED_TRACE(index);
    RepartitionOptions options = BaseOptions();
    options.resume_from = &snapshots[index];
    auto resumed = Repartitioner(options).Run(grid);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_TRUE(resumed->stats.resumed);
    EXPECT_EQ(resumed->stats.resumed_iterations, snapshots[index].iterations);
    ExpectBitIdentical(reference, *resumed);
  }
}

TEST(CheckpointTest, ResumeIsBitIdenticalAcrossThreadsAndSimdTiers) {
  const GridDataset grid = BumpyGrid(12, 12);
  RepartitionResult reference;
  std::vector<RepartitionCheckpoint> snapshots =
      SnapshotEveryIteration(grid, &reference);
  ASSERT_GE(snapshots.size(), 6u);
  const RepartitionCheckpoint& mid = snapshots[snapshots.size() / 2];

  using kernels::ScopedSimdLevel;
  using kernels::SimdLevel;
  for (const SimdLevel level : {SimdLevel::kScalar, kernels::ActiveSimdLevel()}) {
    ScopedSimdLevel forced(level);
    for (const size_t threads : {size_t(1), size_t(2), size_t(8)}) {
      SCOPED_TRACE(std::string(kernels::SimdLevelName(level)) + "/threads=" +
                   std::to_string(threads));
      RepartitionOptions options = BaseOptions();
      options.num_threads = threads;
      options.resume_from = &mid;
      auto resumed = Repartitioner(options).Run(grid);
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
      ExpectBitIdentical(reference, *resumed);
    }
  }
}

/// Cancels the run's token after `after` iteration callbacks, from inside
/// the loop — a deterministic stand-in for a wall-clock deadline.
class CancelAfterSink : public obs::IntrospectionSink {
 public:
  CancelAfterSink(CancellationToken token, size_t after)
      : token_(std::move(token)), after_(after) {}

  void OnIteration(size_t, double, double, size_t, bool) override {
    if (++calls_ >= after_) token_.RequestCancel();
  }

 private:
  CancellationToken token_;
  size_t after_;
  size_t calls_ = 0;
};

TEST(CheckpointTest, InterruptSnapshotResumesToTheIdenticalResult) {
  const GridDataset grid = BumpyGrid(12, 12);
  RepartitionResult reference;
  ASSERT_FALSE(SnapshotEveryIteration(grid, &reference).empty());

  CancellationToken token;
  RunContext ctx;
  ctx.set_token(token);
  ctx.set_best_effort(true);
  CancelAfterSink canceller(token, 5);
  RecordingSink sink;
  RepartitionOptions options = BaseOptions();
  options.introspection = &canceller;
  options.checkpoint = &sink;  // checkpoint_every = 0: interrupt-time only
  auto degraded = Repartitioner(options).Run(grid, &ctx);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  ASSERT_EQ(degraded->stop_reason, StopReason::kInterrupted);
  ASSERT_LT(degraded->iterations, reference.iterations);

  ASSERT_EQ(sink.snapshots.size(), 1u);
  EXPECT_EQ(sink.reasons[0], CheckpointSink::SnapshotReason::kInterrupt);
  const RepartitionCheckpoint& snapshot = sink.snapshots[0];
  EXPECT_EQ(snapshot.iterations, degraded->iterations);
  EXPECT_TRUE(snapshot.ValidateFor(grid).ok());

  RepartitionOptions resume_options = BaseOptions();
  resume_options.resume_from = &snapshot;
  auto resumed = Repartitioner(resume_options).Run(grid);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->stats.resumed);
  ExpectBitIdentical(reference, *resumed);
}

/// SIGKILLs the process after `after` iteration callbacks — no unwinding,
/// no flushing: the hardest crash the durable layer must survive.
class KillAfterSink : public obs::IntrospectionSink {
 public:
  explicit KillAfterSink(size_t after) : after_(after) {}

  void OnIteration(size_t, double, double, size_t, bool) override {
    if (++calls_ >= after_) ::kill(::getpid(), SIGKILL);
  }

 private:
  size_t after_;
  size_t calls_ = 0;
};

TEST(CheckpointKillResumeTest, SigkillMidRunThenResumeIsBitIdentical) {
  const std::string dir = FreshDir("ckpt_kill");
  const GridDataset grid = BumpyGrid(12, 12);
  const RepartitionOptions options = BaseOptions();
  auto reference = Repartitioner(options).Run(grid);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_GE(reference->iterations, 10u);

  const pid_t pid = fork();
  if (pid == 0) {
    // Child: durable checkpoints every 2 iterations, then die mid-run with
    // no chance to clean up. Exit codes flag the impossible paths.
    CheckpointWriter::Options wopt;
    wopt.directory = dir;
    wopt.grid_fingerprint = GridFingerprint(grid);
    wopt.options_fingerprint = OptionsFingerprint(options);
    CheckpointWriter writer(wopt);
    if (!writer.Init().ok()) _exit(3);
    KillAfterSink killer(8);
    RepartitionOptions child_options = options;
    child_options.checkpoint = &writer;
    child_options.checkpoint_every = 2;
    child_options.introspection = &killer;
    (void)Repartitioner(child_options).Run(grid);
    _exit(2);  // the SIGKILL must land before the run completes
  }
  ASSERT_GT(pid, 0);
  int wait_status = 0;
  ASSERT_EQ(::waitpid(pid, &wait_status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wait_status));
  ASSERT_EQ(WTERMSIG(wait_status), SIGKILL);

  // The newest durable generation survived the kill, validates against the
  // same (grid, options), and resuming from it reproduces the reference
  // bit for bit.
  auto recovered = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_TRUE(ValidateStoredCheckpoint(*recovered, grid, options).ok());
  EXPECT_GT(recovered->state.iterations, 0u);
  EXPECT_LT(recovered->state.iterations, reference->iterations);

  RepartitionOptions resume_options = options;
  resume_options.resume_from = &recovered->state;
  auto resumed = Repartitioner(resume_options).Run(grid);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->stats.resumed);
  ExpectBitIdentical(*reference, *resumed);
}

}  // namespace
}  // namespace srp
