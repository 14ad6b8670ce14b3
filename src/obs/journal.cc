#include "obs/journal.h"

#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <ctime>

#include <atomic>

namespace srp {
namespace obs {
namespace {

/// One thread's ring plus ownership bookkeeping. Everything lives in a
/// fixed static arena (`g_slots`) so the crash handler can walk it without
/// allocating and so slot claims are a simple CAS scan.
struct ThreadSlot {
  std::atomic<bool> in_use{false};
  std::atomic<uint32_t> tid{0};
  std::atomic<uint64_t> total_appends{0};
  char label[kJournalThreadLabelCapacity] = {};
  JournalEvent events[kJournalEventsPerThread];
};

ThreadSlot g_slots[kJournalMaxThreads];

std::atomic<bool> g_enabled{true};
std::atomic<uint64_t> g_seq{0};
std::atomic<uint32_t> g_next_tid{0};
std::atomic<uint64_t> g_dropped_thread_events{0};
std::atomic<const char*> g_phase{""};
std::atomic<JournalInterruptHook> g_interrupt_hook{nullptr};
char g_crash_cause[256] = {};
std::atomic<int64_t> g_checkpoint_generation{-1};

/// Copies `text` into `dst` (capacity `cap`), always NUL-terminating.
/// memcpy-based so it stays async-signal-safe.
void BoundedCopy(char* dst, size_t cap, const char* text) {
  if (cap == 0) return;
  size_t n = 0;
  if (text != nullptr) {
    while (n + 1 < cap && text[n] != '\0') ++n;
    std::memcpy(dst, text, n);
  }
  dst[n] = '\0';
}

/// The calling thread's slot. A plain pointer (no constructor, no
/// destructor), so reading it is one TLS load — safe in a signal handler
/// even on a thread that never journaled.
thread_local ThreadSlot* t_slot = nullptr;

/// Per-thread slot registration. The destructor releases the slot on thread
/// exit so pools that come and go do not exhaust the fixed arena. A released
/// ring keeps its events: the postmortem wants the history of dead workers,
/// so ClaimSlot only recycles (and thus empties) a released ring once no
/// never-written slot is left.
struct ThreadRegistration {
  uint32_t tid = 0;
  bool denied = false;  ///< arena was full; this thread journals nowhere

  ~ThreadRegistration() {
    if (t_slot != nullptr) {
      t_slot->in_use.store(false, std::memory_order_release);
    }
  }
};

thread_local ThreadRegistration t_reg;

ThreadSlot* ClaimSlot() {
  if (t_slot != nullptr) return t_slot;
  if (t_reg.denied) return nullptr;
  t_reg.tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  // Pass 0 takes only never-written slots so a fresh thread does not wipe a
  // dead thread's ring while virgin slots remain; pass 1 recycles any
  // released slot (emptying it) once the arena has been fully written.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < kJournalMaxThreads; ++i) {
      ThreadSlot& slot = g_slots[i];
      if (pass == 0 &&
          slot.total_appends.load(std::memory_order_relaxed) != 0) {
        continue;
      }
      bool expected = false;
      if (slot.in_use.compare_exchange_strong(expected, true,
                                              std::memory_order_acq_rel)) {
        slot.total_appends.store(0, std::memory_order_relaxed);
        slot.label[0] = '\0';
        slot.tid.store(t_reg.tid, std::memory_order_relaxed);
        t_slot = &slot;
        return t_slot;
      }
    }
  }
  t_reg.denied = true;
  return nullptr;
}

}  // namespace

const char* JournalEventKindName(JournalEventKind kind) {
  switch (kind) {
    case JournalEventKind::kLog:
      return "log";
    case JournalEventKind::kFault:
      return "fault";
    case JournalEventKind::kInterrupt:
      return "interrupt";
    case JournalEventKind::kTask:
      return "task";
    case JournalEventKind::kPhase:
      return "phase";
    case JournalEventKind::kCheckFail:
      return "check_fail";
    case JournalEventKind::kCheckpoint:
      return "checkpoint";
    case JournalEventKind::kProgress:
      return "progress";
  }
  return "?";
}

void Journal::Append(JournalEventKind kind, int level, const char* text) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  ThreadSlot* slot = ClaimSlot();
  if (slot == nullptr) {
    g_dropped_thread_events.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const uint64_t count = slot->total_appends.load(std::memory_order_relaxed);
  JournalEvent& event = slot->events[count % kJournalEventsPerThread];
  event.ts_ns = NowNanos();
  event.tid = t_reg.tid;
  event.kind = kind;
  event.level = static_cast<int8_t>(level);
  BoundedCopy(event.text, kJournalTextCapacity, text);
  // seq is written last: a reader that sees the new seq sees a fully (or at
  // worst, partially-but-harmlessly) written record.
  event.seq = g_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  slot->total_appends.store(count + 1, std::memory_order_release);
}

void Journal::Appendf(JournalEventKind kind, int level, const char* format,
                      ...) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  char buffer[kJournalTextCapacity];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  Append(kind, level, buffer);
}

void Journal::SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool Journal::Enabled() { return g_enabled.load(std::memory_order_relaxed); }

int64_t Journal::NowNanos() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

uint32_t Journal::CurrentThreadId() {
  ClaimSlot();  // assigns t_reg.tid even when the arena is full
  return t_reg.tid;
}

void Journal::SetThreadLabel(const char* label) {
  ThreadSlot* slot = ClaimSlot();
  if (slot == nullptr) return;
  BoundedCopy(slot->label, kJournalThreadLabelCapacity, label);
}

const char* Journal::ThreadLabel() {
  return t_slot != nullptr ? t_slot->label : "";
}

const char* Journal::SetPhase(const char* phase) {
  if (phase == nullptr) phase = "";
  const char* previous = g_phase.exchange(phase, std::memory_order_acq_rel);
  if (std::strcmp(previous, phase) != 0 && phase[0] != '\0') {
    Append(JournalEventKind::kPhase, 0, phase);
  }
  return previous;
}

const char* Journal::CurrentPhase() {
  return g_phase.load(std::memory_order_acquire);
}

void Journal::SetCrashCause(const char* text) {
  BoundedCopy(g_crash_cause, sizeof(g_crash_cause), text);
}

const char* Journal::crash_cause() { return g_crash_cause; }

void Journal::SetCheckpointGeneration(int64_t generation) {
  g_checkpoint_generation.store(generation, std::memory_order_relaxed);
}

int64_t Journal::checkpoint_generation() {
  return g_checkpoint_generation.load(std::memory_order_relaxed);
}

JournalInterruptHook Journal::SetInterruptHook(JournalInterruptHook hook) {
  return g_interrupt_hook.exchange(hook, std::memory_order_acq_rel);
}

void Journal::NotifyInterrupt(int kind, const char* detail) {
  Append(JournalEventKind::kInterrupt, 0, detail);
  JournalInterruptHook hook = g_interrupt_hook.load(std::memory_order_acquire);
  if (hook != nullptr) hook(kind, detail);
}

size_t Journal::ReadRawThreads(JournalRawThreadView* out, size_t max) {
  size_t count = 0;
  for (size_t i = 0; i < kJournalMaxThreads && count < max; ++i) {
    const ThreadSlot& slot = g_slots[i];
    const uint64_t appends = slot.total_appends.load(std::memory_order_acquire);
    const bool live = slot.in_use.load(std::memory_order_relaxed);
    if (appends == 0 && !live) continue;
    JournalRawThreadView& view = out[count++];
    view.tid = slot.tid.load(std::memory_order_relaxed);
    view.label = slot.label;
    view.live = live;
    view.total_appends = appends;
    view.ring = slot.events;
    view.capacity = kJournalEventsPerThread;
  }
  return count;
}

uint64_t Journal::dropped_thread_events() {
  return g_dropped_thread_events.load(std::memory_order_relaxed);
}

uint64_t Journal::total_events() {
  return g_seq.load(std::memory_order_relaxed);
}

void Journal::ResetForTesting() {
  for (ThreadSlot& slot : g_slots) {
    const bool mine = (&slot == t_slot);
    if (!mine && slot.in_use.load(std::memory_order_acquire)) {
      // A live foreign thread owns this ring; emptying it under the owner
      // would race. Leave it alone — tests reset between runs when their
      // pools are gone.
      continue;
    }
    slot.total_appends.store(0, std::memory_order_relaxed);
    if (!mine) {
      slot.label[0] = '\0';
      slot.tid.store(0, std::memory_order_relaxed);
    }
  }
  g_dropped_thread_events.store(0, std::memory_order_relaxed);
  g_phase.store("", std::memory_order_relaxed);
  g_crash_cause[0] = '\0';
  g_checkpoint_generation.store(-1, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace srp
