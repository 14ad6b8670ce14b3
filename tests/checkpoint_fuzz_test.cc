// Deterministic corruption fuzzing for the crash-recovery readers
// (DESIGN.md §13): every truncation point and every single-bit flip of a
// valid checkpoint file must be REJECTED with a clean Status — never a
// crash, never a silently wrong accept — and the postmortem JSON validator
// must survive the same treatment. CRC32 detects all single-bit errors, so
// "every flip rejected" is a provable property, not a statistical hope; the
// corpus is seeded (no wall-clock, no entropy) and replays identically.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "core/repartitioner.h"
#include "fail/cancellation.h"
#include "fail/checkpoint.h"
#include "grid/grid_dataset.h"
#include "obs/flight_recorder.h"
#include "obs/journal.h"
#include "util/json.h"
#include "util/logging.h"

namespace srp {
namespace {

/// Same varied fixture as checkpoint_test.cc — enough structure for a
/// genuine multi-iteration snapshot.
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

/// CheckpointSink keeping the snapshots, to source a genuine mid-run state.
class RecordingSink : public CheckpointSink {
 public:
  Status OnCheckpoint(const RepartitionCheckpoint& state,
                      SnapshotReason) override {
    snapshots.push_back(state);
    return Status::OK();
  }
  std::vector<RepartitionCheckpoint> snapshots;
};

/// A scratch path unique to the running test and process. ctest runs every
/// TEST of this file as its own process, concurrently under `ctest -j`, and
/// all of them share one testing::TempDir(); a fixed file name would let one
/// process truncate the file another is reading.
std::string ScratchPath(const std::string& stem) {
  const testing::TestInfo* info =
      testing::UnitTest::GetInstance()->current_test_info();
  std::string test = info == nullptr ? "none" : info->name();
  return testing::TempDir() + "/" + stem + "." + test + "." +
         std::to_string(::getpid()) + ".srpckpt";
}

/// Bytes of a freshly written, valid checkpoint file. Built once per suite:
/// the corpus mutates copies of this buffer.
const std::string& ValidCheckpointBytes() {
  static const std::string* bytes = [] {
    const GridDataset grid = BumpyGrid(6, 6);
    RecordingSink sink;
    RepartitionOptions options;
    options.ifl_threshold = 0.1;
    options.num_threads = 1;
    options.checkpoint = &sink;
    options.checkpoint_every = 1;
    auto result = Repartitioner(options).Run(grid);
    SRP_CHECK(result.ok()) << result.status().ToString();
    SRP_CHECK(!sink.snapshots.empty());

    StoredCheckpoint stored;
    stored.state = sink.snapshots[sink.snapshots.size() / 2];
    stored.grid_fingerprint = GridFingerprint(grid);
    stored.options_fingerprint = OptionsFingerprint(options);
    const std::string path = ScratchPath("ckpt_fuzz_seed");
    SRP_CHECK(WriteCheckpointFile(path, stored).ok());
    std::string* out = nullptr;
    {
      std::ifstream in(path, std::ios::binary);
      out = new std::string((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    }
    std::filesystem::remove(path);
    SRP_CHECK(!out->empty());
    return out;
  }();
  return *bytes;
}

/// Writes `bytes` to a scratch path and parses it.
Result<StoredCheckpoint> ParseBytes(const std::string& bytes) {
  const std::string path = ScratchPath("ckpt_fuzz_case");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  Result<StoredCheckpoint> parsed = ReadCheckpointFile(path);
  std::filesystem::remove(path);
  return parsed;
}

TEST(CheckpointFuzzTest, TheUncorruptedSeedParses) {
  ASSERT_TRUE(ParseBytes(ValidCheckpointBytes()).ok());
}

TEST(CheckpointFuzzTest, EveryTruncationPointIsRejectedCleanly) {
  const std::string& seed = ValidCheckpointBytes();
  for (size_t len = 0; len < seed.size(); ++len) {
    const auto parsed = ParseBytes(seed.substr(0, len));
    ASSERT_FALSE(parsed.ok()) << "accepted a " << len << "-byte prefix of a "
                              << seed.size() << "-byte checkpoint";
  }
}

TEST(CheckpointFuzzTest, EverySingleBitFlipIsRejectedCleanly) {
  const std::string& seed = ValidCheckpointBytes();
  std::string mutated = seed;
  for (size_t byte = 0; byte < seed.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      mutated[byte] = static_cast<char>(seed[byte] ^ (1 << bit));
      const auto parsed = ParseBytes(mutated);
      ASSERT_FALSE(parsed.ok())
          << "accepted flip of bit " << bit << " in byte " << byte;
    }
    mutated[byte] = seed[byte];
  }
}

TEST(CheckpointFuzzTest, TrailingGarbageIsRejected) {
  EXPECT_FALSE(ParseBytes(ValidCheckpointBytes() + "x").ok());
  EXPECT_FALSE(
      ParseBytes(ValidCheckpointBytes() + std::string(64, '\0')).ok());
}

TEST(CheckpointFuzzTest, SeededRandomGarbageNeverCrashesTheReader) {
  // xorshift64: fixed seed, fully reproducible corpus.
  uint64_t state = 0x9E3779B97F4A7C15ull;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 256; ++round) {
    std::string bytes(next() % 2048, '\0');
    for (char& b : bytes) b = static_cast<char>(next() & 0xFF);
    // Half the rounds keep the real magic so the section parser (not just
    // the magic check) sees the garbage.
    if (round % 2 == 0 && bytes.size() >= 8) {
      std::memcpy(bytes.data(), "SRPCKPT1", 8);
    }
    const auto parsed = ParseBytes(bytes);
    EXPECT_FALSE(parsed.ok()) << "round " << round;
  }
}

obs::PostmortemEvent InterruptPostmortem(InterruptKind kind) {
  return {.kind = obs::PostmortemKind::kInterrupt,
          .cause = "fuzz seed",
          .interrupt_kind = static_cast<int>(kind)};
}

TEST(CheckpointFuzzTest, PostmortemCheckpointSectionIsValidated) {
  obs::Journal::ResetForTesting();
  obs::Journal::SetCheckpointGeneration(7);
  const Result<JsonValue> parsed = JsonValue::Parse(
      obs::FlightRecorder::RenderPostmortem(
          InterruptPostmortem(InterruptKind::kDeadlineExceeded)));
  obs::Journal::ResetForTesting();
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& good = *parsed;
  ASSERT_TRUE(obs::ValidatePostmortemJson(good).ok())
      << obs::ValidatePostmortemJson(good).ToString();
  ASSERT_NE(good.FindPath("checkpoint.generation"), nullptr);
  EXPECT_EQ(good.FindPath("checkpoint.generation")->number_value(), 7.0);

  // A checkpoint section that is not an object, or one without a numeric
  // generation, must be named as the violation.
  JsonValue not_object = good;
  not_object.Set("checkpoint", JsonValue(std::string("torn")));
  const Status s1 = obs::ValidatePostmortemJson(not_object);
  ASSERT_FALSE(s1.ok());
  EXPECT_NE(s1.message().find("checkpoint"), std::string::npos);

  JsonValue no_generation = good;
  no_generation.Set("checkpoint", JsonValue::Object());
  EXPECT_FALSE(obs::ValidatePostmortemJson(no_generation).ok());

  JsonValue string_generation = good;
  JsonValue ckpt = JsonValue::Object();
  ckpt.Set("generation", JsonValue(std::string("seven")));
  string_generation.Set("checkpoint", ckpt);
  EXPECT_FALSE(obs::ValidatePostmortemJson(string_generation).ok());
}

TEST(CheckpointFuzzTest, CorruptedPostmortemTextNeverCrashesTheValidator) {
  obs::Journal::ResetForTesting();
  obs::Journal::SetCheckpointGeneration(3);
  const std::string seed = obs::FlightRecorder::RenderPostmortem(
      InterruptPostmortem(InterruptKind::kCancelled));
  obs::Journal::ResetForTesting();

  // Truncations: whatever still parses as JSON must flow through the
  // validator without crashing (accept or reject, its call).
  for (size_t len = 0; len < seed.size(); len += 7) {
    const auto doc = JsonValue::Parse(seed.substr(0, len));
    if (doc.ok()) (void)obs::ValidatePostmortemJson(*doc);
  }

  // Seeded byte substitutions across the document.
  uint64_t state = 0xDEADBEEFCAFEF00Dull;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 512; ++round) {
    std::string mutated = seed;
    mutated[next() % mutated.size()] = static_cast<char>(next() & 0xFF);
    const auto doc = JsonValue::Parse(mutated);
    if (doc.ok()) (void)obs::ValidatePostmortemJson(*doc);
  }
}

}  // namespace
}  // namespace srp
