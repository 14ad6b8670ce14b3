// Tests for the lock-free per-thread flight-recorder journal (DESIGN.md
// §11): append/read-back ordering, ring wrap-around, thread labels, the
// process-wide phase, the crash-cause buffer
// and the interrupt hook the fail layer fires through.

#include "obs/journal.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace srp {
namespace obs {
namespace {

/// One thread's retained events, oldest first.
struct ThreadEvents {
  std::string label;
  bool live = false;
  uint64_t total_appends = 0;
  std::vector<JournalEvent> events;
};

/// Decodes Journal::ReadRawThreads — the view the postmortem formatter
/// reads — into per-thread event lists, oldest event first. Slots that were
/// never appended to are omitted.
std::vector<ThreadEvents> ReadThreads() {
  JournalRawThreadView views[kJournalMaxThreads];
  const size_t n = Journal::ReadRawThreads(views, kJournalMaxThreads);
  std::vector<ThreadEvents> threads;
  for (size_t i = 0; i < n; ++i) {
    const JournalRawThreadView& view = views[i];
    if (view.total_appends == 0) continue;
    ThreadEvents thread;
    thread.label = view.label;
    thread.live = view.live;
    thread.total_appends = view.total_appends;
    const uint64_t retained =
        std::min<uint64_t>(view.total_appends, view.capacity);
    const uint64_t start = view.total_appends - retained;
    for (uint64_t j = 0; j < retained; ++j) {
      thread.events.push_back(view.ring[(start + j) % view.capacity]);
    }
    threads.push_back(std::move(thread));
  }
  return threads;
}

/// Every retained event across threads, in global sequence order.
std::vector<JournalEvent> ReadMerged() {
  std::vector<JournalEvent> merged;
  for (const ThreadEvents& thread : ReadThreads()) {
    merged.insert(merged.end(), thread.events.begin(), thread.events.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const JournalEvent& a, const JournalEvent& b) {
              return a.seq < b.seq;
            });
  return merged;
}

/// Resets the journal around every test so cases are independent. The
/// journal ships enabled; restore that on the way out. The sequence counter
/// is process-wide and survives the reset, so event counts are read
/// against the value it had after it.
class JournalTest : public testing::Test {
 protected:
  void SetUp() override {
    Journal::ResetForTesting();
    Journal::SetEnabled(true);
    events_at_reset_ = Journal::total_events();
  }
  void TearDown() override {
    Journal::ResetForTesting();
    Journal::SetEnabled(true);
  }

  /// Events appended since SetUp.
  uint64_t EventsSinceReset() const {
    return Journal::total_events() - events_at_reset_;
  }

 private:
  uint64_t events_at_reset_ = 0;
};

TEST_F(JournalTest, AppendShowsUpInMergedSnapshotInOrder) {
  Journal::Append(JournalEventKind::kLog, 1, "first");
  Journal::Append(JournalEventKind::kFault, 0, "second");
  const std::vector<JournalEvent> merged = ReadMerged();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_LT(merged[0].seq, merged[1].seq);
  EXPECT_LE(merged[0].ts_ns, merged[1].ts_ns);
  EXPECT_STREQ(merged[0].text, "first");
  EXPECT_EQ(merged[0].kind, JournalEventKind::kLog);
  EXPECT_EQ(merged[0].level, 1);
  EXPECT_STREQ(merged[1].text, "second");
  EXPECT_EQ(merged[1].kind, JournalEventKind::kFault);
  EXPECT_EQ(EventsSinceReset(), 2u);
}

TEST_F(JournalTest, RingWrapKeepsTheNewestEvents) {
  const size_t appended = kJournalEventsPerThread + 50;
  for (size_t i = 0; i < appended; ++i) {
    Journal::Appendf(JournalEventKind::kLog, 0, "event %zu", i);
  }
  const std::vector<ThreadEvents> threads = ReadThreads();
  ASSERT_EQ(threads.size(), 1u);
  const ThreadEvents& snap = threads[0];
  EXPECT_EQ(snap.total_appends, appended);
  ASSERT_EQ(snap.events.size(), kJournalEventsPerThread);
  // Oldest retained event is the one right after the overwritten prefix.
  EXPECT_EQ(std::string(snap.events.front().text), "event 50");
  EXPECT_EQ(std::string(snap.events.back().text),
            "event " + std::to_string(appended - 1));
  // Snapshot order is append order.
  for (size_t i = 1; i < snap.events.size(); ++i) {
    EXPECT_LT(snap.events[i - 1].seq, snap.events[i].seq);
  }
}

TEST_F(JournalTest, ThreadLabelIsCopiedAndTruncated) {
  Journal::SetThreadLabel("main");
  EXPECT_STREQ(Journal::ThreadLabel(), "main");
  Journal::Append(JournalEventKind::kLog, 1, "labelled");
  const std::vector<ThreadEvents> threads = ReadThreads();
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_EQ(threads[0].label, "main");
  EXPECT_TRUE(threads[0].live);

  const std::string longer(2 * kJournalThreadLabelCapacity, 'x');
  Journal::SetThreadLabel(longer.c_str());
  EXPECT_EQ(std::strlen(Journal::ThreadLabel()),
            kJournalThreadLabelCapacity - 1);
}

TEST_F(JournalTest, PhaseScopeRestoresPreviousPhase) {
  EXPECT_STREQ(Journal::CurrentPhase(), "");
  {
    JournalPhaseScope outer("test.outer");
    EXPECT_STREQ(Journal::CurrentPhase(), "test.outer");
    {
      JournalPhaseScope inner("test.inner");
      EXPECT_STREQ(Journal::CurrentPhase(), "test.inner");
    }
    EXPECT_STREQ(Journal::CurrentPhase(), "test.outer");
  }
  EXPECT_STREQ(Journal::CurrentPhase(), "");
}

TEST_F(JournalTest, PhaseChangeAppendsOneEventOnlyWhenItChanges) {
  Journal::SetPhase("test.phase_a");
  Journal::SetPhase("test.phase_a");  // no-op: unchanged
  Journal::SetPhase("test.phase_b");
  const std::vector<JournalEvent> merged = ReadMerged();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].kind, JournalEventKind::kPhase);
  EXPECT_STREQ(merged[0].text, "test.phase_a");
  EXPECT_STREQ(merged[1].text, "test.phase_b");
  Journal::SetPhase("");
}

TEST_F(JournalTest, DisabledJournalDropsAppends) {
  Journal::SetEnabled(false);
  EXPECT_FALSE(Journal::Enabled());
  Journal::Append(JournalEventKind::kLog, 1, "dropped");
  EXPECT_EQ(EventsSinceReset(), 0u);
  Journal::SetEnabled(true);
  Journal::Append(JournalEventKind::kLog, 1, "kept");
  EXPECT_EQ(EventsSinceReset(), 1u);
}

TEST_F(JournalTest, AppendfTruncatesOverlongText) {
  const std::string longer(2 * kJournalTextCapacity, 'y');
  Journal::Appendf(JournalEventKind::kLog, 0, "%s", longer.c_str());
  const std::vector<JournalEvent> merged = ReadMerged();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(std::strlen(merged[0].text), kJournalTextCapacity - 1);
}

TEST_F(JournalTest, CrashCauseIsStoredAndTruncated) {
  EXPECT_STREQ(Journal::crash_cause(), "");
  Journal::SetCrashCause("Check failed: invariant");
  EXPECT_STREQ(Journal::crash_cause(), "Check failed: invariant");
  const std::string longer(1024, 'z');
  Journal::SetCrashCause(longer.c_str());
  EXPECT_LT(std::strlen(Journal::crash_cause()), 1024u);
  EXPECT_GT(std::strlen(Journal::crash_cause()), 0u);
}

struct HookCapture {
  static int last_kind;
  static std::string last_detail;
  static void Hook(int kind, const char* detail) {
    last_kind = kind;
    last_detail = detail;
  }
};
int HookCapture::last_kind = -1;
std::string HookCapture::last_detail;

TEST_F(JournalTest, NotifyInterruptJournalsAndInvokesHook) {
  JournalInterruptHook previous = Journal::SetInterruptHook(&HookCapture::Hook);
  Journal::NotifyInterrupt(2, "run deadline exceeded");
  Journal::SetInterruptHook(previous);

  EXPECT_EQ(HookCapture::last_kind, 2);
  EXPECT_EQ(HookCapture::last_detail, "run deadline exceeded");
  const std::vector<JournalEvent> merged = ReadMerged();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].kind, JournalEventKind::kInterrupt);
  EXPECT_STREQ(merged[0].text, "run deadline exceeded");
}

TEST_F(JournalTest, NotifyInterruptWithoutHookStillJournals) {
  JournalInterruptHook previous = Journal::SetInterruptHook(nullptr);
  Journal::NotifyInterrupt(1, "run cancelled via CancellationToken");
  Journal::SetInterruptHook(previous);
  EXPECT_EQ(EventsSinceReset(), 1u);
}

TEST_F(JournalTest, RawThreadViewsCoverTheStaticArena) {
  Journal::SetThreadLabel("raw-reader");
  Journal::Append(JournalEventKind::kLog, 1, "raw");
  JournalRawThreadView views[kJournalMaxThreads];
  const size_t count = Journal::ReadRawThreads(views, kJournalMaxThreads);
  ASSERT_GE(count, 1u);
  bool found = false;
  for (size_t i = 0; i < count; ++i) {
    ASSERT_NE(views[i].ring, nullptr);
    EXPECT_EQ(views[i].capacity, kJournalEventsPerThread);
    if (views[i].live && std::strcmp(views[i].label, "raw-reader") == 0) {
      found = true;
      EXPECT_EQ(views[i].total_appends, 1u);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(JournalTest, ConcurrentAppendersAreAllRetained) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;  // < ring capacity: nothing is evicted
  std::vector<std::thread> workers;
  std::atomic<int> go{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&go, t] {
      go.fetch_add(1);
      while (go.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kPerThread; ++i) {
        Journal::Appendf(JournalEventKind::kTask, 0, "worker %d event %d", t,
                         i);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(EventsSinceReset(),
            static_cast<uint64_t>(kThreads * kPerThread));
  const std::vector<JournalEvent> merged = ReadMerged();
  EXPECT_EQ(merged.size(), static_cast<size_t>(kThreads * kPerThread));
  for (size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LT(merged[i - 1].seq, merged[i].seq);
  }
  EXPECT_EQ(Journal::dropped_thread_events(), 0u);
}

TEST_F(JournalTest, DeadThreadRingsSurviveForThePostmortem) {
  // Sequentially-exiting threads must not recycle (and wipe) each other's
  // rings while virgin slots remain — the postmortem wants dead workers'
  // history.
  for (int t = 0; t < 3; ++t) {
    std::thread worker([t] {
      Journal::Appendf(JournalEventKind::kTask, 0, "short-lived %d", t);
    });
    worker.join();
  }
  const std::vector<JournalEvent> merged = ReadMerged();
  ASSERT_EQ(merged.size(), 3u);
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(std::string(merged[static_cast<size_t>(t)].text),
              "short-lived " + std::to_string(t));
  }
}

TEST_F(JournalTest, RingWrapThreeTimesOverRetainsExactlyTheNewestCapacity) {
  const size_t appended = 3 * kJournalEventsPerThread;
  for (size_t i = 0; i < appended; ++i) {
    Journal::Appendf(JournalEventKind::kLog, 0, "wrap %zu", i);
  }
  const std::vector<ThreadEvents> threads = ReadThreads();
  ASSERT_EQ(threads.size(), 1u);
  const ThreadEvents& snap = threads[0];
  EXPECT_EQ(snap.total_appends, appended);
  ASSERT_EQ(snap.events.size(), kJournalEventsPerThread);
  EXPECT_EQ(std::string(snap.events.front().text),
            "wrap " + std::to_string(appended - kJournalEventsPerThread));
  EXPECT_EQ(std::string(snap.events.back().text),
            "wrap " + std::to_string(appended - 1));
  for (size_t i = 1; i < snap.events.size(); ++i) {
    EXPECT_LT(snap.events[i - 1].seq, snap.events[i].seq);
  }
}

TEST_F(JournalTest, SlotChurnBeyondArenaRecyclesOnlyAfterVirginSlotsGone) {
  // More sequential short-lived threads than the arena has slots. The
  // telemetry sampler + worker pools churn threads like this in long
  // processes; the contract is that recycling starts only once every
  // virgin slot has been written, and then reuses the *first released*
  // slot — so all the other dead rings stay readable for the postmortem.
  Journal::Append(JournalEventKind::kLog, 0, "main-anchor");
  const size_t virgin = kJournalMaxThreads - 1;  // main owns one slot
  const size_t churn = virgin + 16;              // forces 17 recycles
  for (size_t t = 0; t < churn; ++t) {
    std::thread worker([t] {
      Journal::Appendf(JournalEventKind::kTask, 0, "churn %zu", t);
    });
    worker.join();
  }
  EXPECT_EQ(EventsSinceReset(), static_cast<uint64_t>(churn + 1));
  EXPECT_EQ(Journal::dropped_thread_events(), 0u);

  const std::vector<JournalEvent> merged = ReadMerged();
  // One retained event per slot: every slot was written exactly once and
  // recycling evicts before it rewrites.
  ASSERT_EQ(merged.size(), kJournalMaxThreads);
  std::vector<std::string> texts;
  texts.reserve(merged.size());
  for (const JournalEvent& event : merged) texts.emplace_back(event.text);
  const auto has = [&texts](const std::string& needle) {
    for (const std::string& text : texts) {
      if (text == needle) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("main-anchor"));
  // Thread `virgin` was the first recycler and it (and every later one)
  // reused the first released slot — thread 0's. So "churn 0" is gone,
  // "churn 1" .. "churn virgin-1" survive as dead rings, and the newest
  // churn event is always present.
  EXPECT_FALSE(has("churn 0"));
  for (size_t t = 1; t < virgin; ++t) {
    EXPECT_TRUE(has("churn " + std::to_string(t))) << "lost dead ring " << t;
  }
  EXPECT_TRUE(has("churn " + std::to_string(churn - 1)));
}

TEST_F(JournalTest, EventKindNamesAreStable) {
  EXPECT_STREQ(JournalEventKindName(JournalEventKind::kLog), "log");
  EXPECT_STREQ(JournalEventKindName(JournalEventKind::kFault), "fault");
  EXPECT_STREQ(JournalEventKindName(JournalEventKind::kInterrupt),
               "interrupt");
  EXPECT_STREQ(JournalEventKindName(JournalEventKind::kTask), "task");
  EXPECT_STREQ(JournalEventKindName(JournalEventKind::kPhase), "phase");
  EXPECT_STREQ(JournalEventKindName(JournalEventKind::kCheckFail),
               "check_fail");
}

}  // namespace
}  // namespace obs
}  // namespace srp
