// Tests for the live-telemetry plane (DESIGN.md §14): the progress tracker
// and its monotone ETA, the pool-stats provider bridge, the background
// sampler (stream sink, stop semantics), the stall watchdog's kind-"stall"
// postmortems, and the determinism contract — a run with the sampler on is
// bit-identical to one with it off.

#include "obs/telemetry.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/repartitioner.h"
#include "grid/grid_dataset.h"
#include "obs/flight_recorder.h"
#include "obs/journal.h"
#include "util/json.h"
#include "util/string_util.h"

namespace srp {
namespace obs {
namespace {

class ProgressTrackerTest : public testing::Test {
 protected:
  void SetUp() override { ProgressTracker::Get().ResetForTesting(); }
  void TearDown() override { ProgressTracker::Get().ResetForTesting(); }
};

TEST_F(ProgressTrackerTest, BeginRunResetsStateAndSnapshotDerives) {
  ProgressTracker& tracker = ProgressTracker::Get();
  tracker.SetStopReason("heap_drained");  // left over from an earlier run
  const uint64_t token = tracker.BeginRun("repartition", 0.25);
  tracker.SetWorkTotal(100);
  tracker.SetWorkDone(25);
  tracker.OnCandidate(/*variation=*/0.5, /*ifl=*/0.1, /*groups=*/40,
                      /*accepted=*/true);
  tracker.OnCandidate(/*variation=*/0.6, /*ifl=*/0.2, /*groups=*/40,
                      /*accepted=*/false);

  const ProgressSnapshot snap = tracker.Snapshot();
  EXPECT_TRUE(snap.active);
  EXPECT_EQ(snap.driver, "repartition");
  EXPECT_DOUBLE_EQ(snap.theta, 0.25);
  EXPECT_EQ(snap.work_total, 100u);
  EXPECT_EQ(snap.work_done, 25u);
  EXPECT_EQ(snap.candidates, 2u);
  EXPECT_EQ(snap.iterations, 1u);
  EXPECT_EQ(snap.groups, 40u);
  EXPECT_DOUBLE_EQ(snap.current_ifl, 0.2);
  EXPECT_DOUBLE_EQ(snap.accept_rate, 0.5);
  // The larger of pops/heap (25/100) and the loss budget spent (0.2/0.25).
  EXPECT_DOUBLE_EQ(snap.fraction_done, 0.8);
  EXPECT_GE(snap.eta_seconds, 0.0);  // depletion data exists -> known
  EXPECT_EQ(snap.stop_reason, "");

  tracker.EndRun(token);
  EXPECT_FALSE(tracker.Snapshot().active);
  // Final counters survive EndRun for the last exported sample.
  EXPECT_EQ(tracker.Snapshot().iterations, 1u);
}

TEST_F(ProgressTrackerTest, EtaIsMonotoneNonIncreasingWithinARun) {
  ProgressTracker& tracker = ProgressTracker::Get();
  const uint64_t token = tracker.BeginRun("repartition", 0.1);
  tracker.SetWorkTotal(1000);
  tracker.SetWorkDone(100);
  const ProgressSnapshot first = tracker.Snapshot();
  ASSERT_GE(first.eta_seconds, 0.0);

  // Let wall time advance with almost no new work: the raw estimate
  // elapsed*(1-f)/f grows, but the published ETA must not.
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  tracker.SetWorkDone(101);
  const ProgressSnapshot second = tracker.Snapshot();
  EXPECT_LE(second.eta_seconds, first.eta_seconds);

  // A new run resets the clamp.
  tracker.EndRun(token);
  const uint64_t token2 = tracker.BeginRun("repartition", 0.1);
  tracker.SetWorkTotal(10);
  tracker.SetWorkDone(1);
  EXPECT_GE(tracker.Snapshot().eta_seconds, 0.0);
  tracker.EndRun(token2);
}

TEST_F(ProgressTrackerTest, FractionDoneBoundsByLossBudgetAndReadsOneWhenDone) {
  ProgressTracker& tracker = ProgressTracker::Get();
  const uint64_t token = tracker.BeginRun("repartition", 0.1);
  EXPECT_DOUBLE_EQ(tracker.Snapshot().fraction_done, 0.0);
  // A θ-bounded run: 4 of 16,000 pops, but 60% of the loss budget spent.
  tracker.SetWorkTotal(16000);
  tracker.SetWorkDone(4);
  tracker.OnCandidate(/*variation=*/0.01, /*ifl=*/0.06, /*groups=*/900,
                      /*accepted=*/true);
  EXPECT_DOUBLE_EQ(tracker.Snapshot().fraction_done, 0.6);
  // Pops ahead of the loss: the larger bound wins.
  tracker.SetWorkDone(12000);
  EXPECT_DOUBLE_EQ(tracker.Snapshot().fraction_done, 0.75);
  // The rejected candidate overshoots θ; the fraction stays within [0, 1].
  tracker.OnCandidate(/*variation=*/0.02, /*ifl=*/0.3, /*groups=*/900,
                      /*accepted=*/false);
  EXPECT_DOUBLE_EQ(tracker.Snapshot().fraction_done, 1.0);
  tracker.EndRun(token);

  // A finished run reads 1 however little of the heap it popped.
  const uint64_t short_run = tracker.BeginRun("repartition", 0.05);
  tracker.SetWorkTotal(15819);
  tracker.SetWorkDone(4);
  tracker.OnCandidate(0.01, 0.001, 100, true);
  EXPECT_LT(tracker.Snapshot().fraction_done, 0.1);
  tracker.EndRun(short_run);
  EXPECT_DOUBLE_EQ(tracker.Snapshot().fraction_done, 1.0);

  // θ = 0 (no loss budget) falls back to pops/heap.
  const uint64_t zero_theta = tracker.BeginRun("homogeneous", 0.0);
  tracker.SetWorkTotal(10);
  tracker.SetWorkDone(5);
  tracker.OnCandidate(0.01, 0.5, 5, true);
  EXPECT_DOUBLE_EQ(tracker.Snapshot().fraction_done, 0.5);
  tracker.EndRun(zero_theta);
}

TEST_F(ProgressTrackerTest, StaleEndRunTokenDoesNotClobberNewerRun) {
  ProgressTracker& tracker = ProgressTracker::Get();
  const uint64_t stale = tracker.BeginRun("repartition", 0.1);
  const uint64_t fresh = tracker.BeginRun("homogeneous", 0.2);
  tracker.EndRun(stale);  // must be ignored: a newer run owns the state
  const ProgressSnapshot snap = tracker.Snapshot();
  EXPECT_TRUE(snap.active);
  EXPECT_EQ(snap.driver, "homogeneous");
  tracker.EndRun(fresh);
  EXPECT_FALSE(tracker.Snapshot().active);
}

TEST_F(ProgressTrackerTest, ActivitySignatureAdvancesWithWork) {
  ProgressTracker& tracker = ProgressTracker::Get();
  const uint64_t token = tracker.BeginRun("repartition", 0.1);
  const uint64_t before = tracker.ActivitySignature();
  tracker.OnCandidate(0.1, 0.05, 10, true);
  const uint64_t after_candidate = tracker.ActivitySignature();
  EXPECT_NE(before, after_candidate);
  tracker.SetWorkDone(5);
  EXPECT_NE(after_candidate, tracker.ActivitySignature());
  tracker.EndRun(token);
}

TEST(PoolStatsBridgeTest, ProviderInstallAndRestore) {
  static bool fake_called = false;
  const PoolStatsProviderFn fake = [](PoolStatsSample* out) {
    fake_called = true;
    out->live_pools = 2;
    out->pool_size = 8;
    out->busy_ns = 1234;
    return true;
  };
  PoolStatsProviderFn previous = SetPoolStatsProvider(fake);
  PoolStatsSample sample;
  EXPECT_TRUE(ReadPoolStats(&sample));
  EXPECT_TRUE(fake_called);
  EXPECT_EQ(sample.live_pools, 2u);
  EXPECT_EQ(sample.pool_size, 8u);
  EXPECT_EQ(sample.busy_ns, 1234);
  SetPoolStatsProvider(previous);
}

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

class TelemetrySamplerTest : public testing::Test {
 protected:
  void SetUp() override {
    ProgressTracker::Get().ResetForTesting();
    Journal::ResetForTesting();
  }
  void TearDown() override {
    ProgressTracker::Get().ResetForTesting();
    Journal::ResetForTesting();
  }
};

/// The stream file's lines, each parsed; a malformed line fails the test.
std::vector<JsonValue> ReadStream(const std::string& path) {
  std::vector<JsonValue> out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return out;
  std::string contents;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(f);
  for (const std::string& line : Split(contents, '\n')) {
    if (line.empty()) continue;
    auto doc = JsonValue::Parse(line);
    EXPECT_TRUE(doc.ok()) << line;
    if (doc.ok()) out.push_back(std::move(*doc));
  }
  return out;
}

TEST_F(TelemetrySamplerTest, StartStopTakesSamplesAndNoneAfterStop) {
  const std::string path = testing::TempDir() + "/telemetry_start_stop.jsonl";
  std::remove(path.c_str());
  TelemetrySamplerOptions options;
  options.interval_ms = 2.0;
  options.stream_path = path;
  TelemetrySampler sampler(options);
  ASSERT_TRUE(sampler.Start().ok());
  EXPECT_TRUE(sampler.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  sampler.Stop();
  EXPECT_FALSE(sampler.running());
  const uint64_t after_stop = sampler.samples_taken();
  EXPECT_GE(after_stop, 2u);  // several ticks + the final sample

  // Hard guarantee: nothing samples after Stop() returns.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(sampler.samples_taken(), after_stop);

  // The stream holds every sample, in order, and ends with the synchronous
  // final sample.
  const std::vector<JsonValue> lines = ReadStream(path);
  ASSERT_EQ(lines.size(), after_stop);
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].Find("i")->number_value(), static_cast<double>(i));
    EXPECT_EQ(lines[i].Find("final")->bool_value(), i + 1 == lines.size());
    if (i > 0) {
      EXPECT_GE(lines[i].Find("ts_ns")->number_value(),
                lines[i - 1].Find("ts_ns")->number_value());
    }
  }
  std::remove(path.c_str());
}

TEST_F(TelemetrySamplerTest, StopIsIdempotentAndStartAfterStopFails) {
  TelemetrySamplerOptions options;
  options.interval_ms = 5.0;
  TelemetrySampler sampler(options);
  ASSERT_TRUE(sampler.Start().ok());
  sampler.Stop();
  const uint64_t count = sampler.samples_taken();
  sampler.Stop();  // second Stop is a no-op
  EXPECT_EQ(sampler.samples_taken(), count);
}

TEST_F(TelemetrySamplerTest, StreamSinkWritesSelfContainedVersionedLines) {
  const std::string path =
      testing::TempDir() + "/telemetry_stream_test.jsonl";
  std::remove(path.c_str());

  {
    TelemetrySamplerOptions options;
    options.interval_ms = 2.0;
    options.stream_path = path;
    TelemetrySampler sampler(options);
    ASSERT_TRUE(sampler.Start().ok());
    const uint64_t token = ProgressTracker::Get().BeginRun("repartition", 0.5);
    ProgressTracker::Get().SetWorkTotal(10);
    ProgressTracker::Get().SetWorkDone(4);
    ProgressTracker::Get().OnCandidate(0.1, 0.2, 6, true);
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    ProgressTracker::Get().SetStopReason("theta_exceeded");
    ProgressTracker::Get().EndRun(token);
    sampler.Stop();
  }

  const std::vector<JsonValue> lines = ReadStream(path);
  bool saw_active_progress = false;
  for (const JsonValue& doc : lines) {
    const JsonValue* version = doc.Find("v");
    ASSERT_NE(version, nullptr);
    EXPECT_EQ(static_cast<int>(version->number_value()),
              kTelemetryStreamVersion);
    ASSERT_NE(doc.FindPath("journal.seq"), nullptr);
    ASSERT_NE(doc.FindPath("progress.iterations"), nullptr);
    ASSERT_NE(doc.FindPath("mem.rss_bytes"), nullptr);
    ASSERT_NE(doc.FindPath("mem.alloc_peak_bytes"), nullptr);
    ASSERT_NE(doc.Find("final"), nullptr);
    // v2 lines carry no per-line counters/gauges copy.
    EXPECT_EQ(doc.Find("counters"), nullptr);
    EXPECT_EQ(doc.Find("gauges"), nullptr);
    const JsonValue* stop_reason = doc.FindPath("progress.stop_reason");
    ASSERT_NE(stop_reason, nullptr);
    const JsonValue* active = doc.FindPath("progress.active");
    if (active != nullptr && active->bool_value()) {
      saw_active_progress = true;
      EXPECT_DOUBLE_EQ(doc.FindPath("progress.theta")->number_value(), 0.5);
      EXPECT_EQ(stop_reason->string_value(), "");  // empty while running
    }
  }
  ASSERT_GE(lines.size(), 2u);
  EXPECT_TRUE(saw_active_progress);
  // The final sample is last and says why the run stopped.
  EXPECT_TRUE(lines.back().Find("final")->bool_value());
  EXPECT_EQ(lines.back().FindPath("progress.stop_reason")->string_value(),
            "theta_exceeded");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Stall watchdog
// ---------------------------------------------------------------------------

/// The postmortem.*.json files in `dir`, sorted.
std::vector<std::string> PostmortemFiles(const std::string& dir) {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("postmortem.", 0) == 0 &&
        name.size() > 5 && name.compare(name.size() - 5, 5, ".json") == 0) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

class StallWatchdogTest : public testing::Test {
 protected:
  void SetUp() override {
    FlightRecorder::Uninstall();
    Journal::ResetForTesting();
    ProgressTracker::Get().ResetForTesting();
    // One directory per test and process: ctest runs tests in parallel.
    dir_ = testing::TempDir() + "/stall_watchdog_test." +
           testing::UnitTest::GetInstance()->current_test_info()->name() +
           "." + std::to_string(getpid());
    std::filesystem::remove_all(dir_);
    FlightRecorderOptions options;
    options.postmortem_dir = dir_;
    options.install_signal_handlers = false;
    ASSERT_TRUE(FlightRecorder::Install(options).ok());
  }
  void TearDown() override {
    FlightRecorder::Uninstall();
    Journal::ResetForTesting();
    ProgressTracker::Get().ResetForTesting();
    std::filesystem::remove_all(dir_);
  }
  std::string dir_;
};

TEST_F(StallWatchdogTest, FrozenRunTriggersValidatedStallPostmortem) {
  TelemetrySamplerOptions options;
  options.interval_ms = 5.0;
  options.stall_timeout_ms = 40.0;
  TelemetrySampler sampler(options);

  // An active run that then freezes completely.
  const uint64_t token = ProgressTracker::Get().BeginRun("repartition", 0.1);
  ProgressTracker::Get().SetWorkTotal(100);
  ProgressTracker::Get().SetWorkDone(1);
  ASSERT_TRUE(sampler.Start().ok());

  // The watchdog re-arms after each dump, so a run that stays frozen fills
  // the cap; wait for it, then three more windows past it.
  for (int i = 0;
       i < 200 && sampler.stall_dumps_triggered() < kMaxStallDumps; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  sampler.Stop();
  ProgressTracker::Get().EndRun(token);

  ASSERT_EQ(sampler.stall_dumps_triggered(), kMaxStallDumps);  // capped

  // Exactly the capped number of files landed; each validates as "stall".
  const std::vector<std::string> written = PostmortemFiles(dir_);
  ASSERT_EQ(written.size(), kMaxStallDumps);
  for (const std::string& path : written) {
    EXPECT_NE(path.find(".stall."), std::string::npos) << path;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string contents;
    char buffer[4096];
    size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
      contents.append(buffer, n);
    }
    std::fclose(f);
    auto doc = JsonValue::Parse(contents);
    ASSERT_TRUE(doc.ok()) << path;
    EXPECT_TRUE(ValidatePostmortemJson(*doc).ok())
        << ValidatePostmortemJson(*doc).ToString();
    EXPECT_EQ(doc->Find("kind")->string_value(), "stall");
    const JsonValue* window = doc->FindPath("stall.window_ms");
    ASSERT_NE(window, nullptr);
    EXPECT_GE(window->number_value(), 40.0);
  }
}

TEST_F(StallWatchdogTest, ForwardProgressSuppressesTheWatchdog) {
  TelemetrySamplerOptions options;
  options.interval_ms = 5.0;
  options.stall_timeout_ms = 30.0;
  TelemetrySampler sampler(options);

  const uint64_t token = ProgressTracker::Get().BeginRun("repartition", 0.1);
  ProgressTracker::Get().SetWorkTotal(1000);
  ASSERT_TRUE(sampler.Start().ok());
  // Keep making progress more often than the stall window.
  for (int i = 0; i < 15; ++i) {
    ProgressTracker::Get().SetWorkDone(static_cast<uint64_t>(i + 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  sampler.Stop();
  ProgressTracker::Get().EndRun(token);
  EXPECT_EQ(sampler.stall_dumps_triggered(), 0u);
  EXPECT_TRUE(PostmortemFiles(dir_).empty());
}

// ---------------------------------------------------------------------------
// Determinism contract
// ---------------------------------------------------------------------------

GridDataset SmoothGrid(size_t rows, size_t cols) {
  GridDataset g(rows, cols, {{"a", AggType::kAverage, false}});
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      g.Set(r, c, 0, 100.0 + static_cast<double>(r * cols + c % 7));
    }
  }
  return g;
}

/// Serializes a result the way the CLI's partition CSVs would: every cell's
/// group id plus every group's exact feature bits. Bit-identical strings ⇔
/// bit-identical CSVs.
std::string PartitionFingerprint(const GridDataset& grid,
                                 const RepartitionResult& result) {
  std::string out;
  out += "groups=" + std::to_string(result.partition.num_groups());
  out += " iters=" + std::to_string(result.iterations);
  char buf[64];
  std::snprintf(buf, sizeof(buf), " ifl=%.17g", result.information_loss);
  out += buf;
  for (size_t r = 0; r < grid.rows(); ++r) {
    for (size_t c = 0; c < grid.cols(); ++c) {
      out += "," + std::to_string(result.partition.GroupOf(r, c));
    }
  }
  for (const auto& features : result.partition.features) {
    for (double v : features) {
      std::snprintf(buf, sizeof(buf), ";%.17g", v);
      out += buf;
    }
  }
  return out;
}

TEST(TelemetryDeterminismTest, SamplerOnIsBitIdenticalToSamplerOff) {
  const GridDataset grid = SmoothGrid(24, 24);
  for (const size_t threads : {size_t{1}, size_t{8}}) {
    RepartitionOptions ropt;
    ropt.ifl_threshold = 0.08;
    ropt.num_threads = threads;

    ProgressTracker::Get().ResetForTesting();
    auto plain = Repartitioner(ropt).Run(grid);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    const std::string baseline = PartitionFingerprint(grid, *plain);

    // Same run with an aggressive sampler attached (1 ms period, stream
    // sink active): results must not move by a single bit.
    const std::string stream = testing::TempDir() +
                               "/telemetry_determinism_" +
                               std::to_string(threads) + ".jsonl";
    std::remove(stream.c_str());
    TelemetrySamplerOptions topt;
    topt.interval_ms = 1.0;
    topt.stream_path = stream;
    ProgressTracker::Get().ResetForTesting();
    {
      TelemetrySampler sampler(topt);
      ASSERT_TRUE(sampler.Start().ok());
      auto sampled = Repartitioner(ropt).Run(grid);
      sampler.Stop();
      ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
      EXPECT_EQ(PartitionFingerprint(grid, *sampled), baseline)
          << "telemetry sampler perturbed the result at threads=" << threads;
      EXPECT_GE(sampler.samples_taken(), 1u);
    }
    std::remove(stream.c_str());
  }
}

}  // namespace
}  // namespace obs
}  // namespace srp
