#ifndef SRP_OBS_JOURNAL_H_
#define SRP_OBS_JOURNAL_H_

#include <cstddef>
#include <cstdint>

namespace srp {
namespace obs {

/// Lock-free per-thread flight-recorder journal (DESIGN.md §11).
///
/// Every thread that logs, enters a phase, fires a fault point, or hits an
/// interrupt appends fixed-size events into its own ring buffer; a global
/// sequence counter orders events across threads after the fact. The journal
/// is the black box the crash handler reads when the process dies, so the
/// write path and the raw read path obey signal-safety rules:
///
///  * all storage is static (BSS) — no allocation, ever;
///  * `Append` is a clock read, one relaxed fetch_add, and a bounded memcpy;
///  * readers tolerate torn events (a half-written record at crash time is
///    at worst one garbled text field, never a wild pointer).
///
/// This deliberately lives BELOW srp_util in the layering (library
/// `srp_journal`) so the fault injector, RunContext, and the logger itself —
/// all beneath srp_obs — can write events without an upward dependency.

/// What kind of moment an event records. Names are stable artifact contract
/// (postmortem JSON / srp_inspect), append-only.
enum class JournalEventKind : uint8_t {
  kLog = 0,        ///< a log record that passed the level filter
  kFault = 3,      ///< fault-injection point fired
  kInterrupt = 4,  ///< RunContext observed its first interrupt
  kTask = 5,       ///< ThreadPool lifecycle milestone
  kPhase = 6,       ///< algorithm phase transition (Journal::SetPhase)
  kCheckFail = 7,   ///< SRP_CHECK / SRP_DCHECK failure text, pre-abort
  kCheckpoint = 8,  ///< durable checkpoint generation committed to disk
  kProgress = 9,    ///< telemetry progress breadcrumb (sampler heartbeat)
};

const char* JournalEventKindName(JournalEventKind kind);

/// Bytes of event text retained (including the NUL). Longer texts are
/// truncated; 102 keeps sizeof(JournalEvent) at exactly 128.
inline constexpr size_t kJournalTextCapacity = 102;

/// One fixed-size journal record. Trivially copyable by design: the crash
/// handler memcpy-snapshots rings while other threads may still be writing.
struct JournalEvent {
  uint64_t seq = 0;    ///< global order; 0 = slot never written
  int64_t ts_ns = 0;   ///< CLOCK_MONOTONIC nanoseconds (Journal::NowNanos)
  uint32_t tid = 0;    ///< journal-dense thread id (0, 1, ...)
  JournalEventKind kind = JournalEventKind::kLog;
  int8_t level = 0;    ///< LogLevel numeric value for kLog/kCheckFail, else 0
  char text[kJournalTextCapacity] = {};
};
static_assert(sizeof(JournalEvent) == 128, "journal event must stay compact");

/// Ring capacity per thread and max simultaneously-tracked threads. Slots
/// are recycled when threads exit, so long-lived processes with short-lived
/// pools stay within the fixed arena (~2 MiB of BSS). A dead thread's ring
/// survives (for the postmortem) until every never-written slot has been
/// claimed; only then does a new thread empty and reuse a released ring.
inline constexpr size_t kJournalEventsPerThread = 256;
inline constexpr size_t kJournalMaxThreads = 64;
inline constexpr size_t kJournalThreadLabelCapacity = 24;

/// Signal-safe view of one thread slot: raw pointers into the static arena,
/// no allocation. `ring` is the full circular buffer; the oldest retained
/// event is at `total_appends % capacity` when the ring has wrapped.
struct JournalRawThreadView {
  uint32_t tid = 0;
  const char* label = nullptr;
  bool live = false;
  uint64_t total_appends = 0;
  const JournalEvent* ring = nullptr;
  size_t capacity = 0;
};

/// Interrupt-notification hook; installed by the flight recorder so a
/// deadline/cancellation observed down in src/fail can trigger a postmortem
/// dump up in src/obs without an upward link-time dependency. `kind` is the
/// numeric value of fail::InterruptKind. Called at most once per RunContext
/// (the sticky first-interrupt transition), in normal (non-signal) context.
using JournalInterruptHook = void (*)(int kind, const char* detail);

class Journal {
 public:
  /// Appends one event to the calling thread's ring. Signal-safe. No-op
  /// while disabled or when more than kJournalMaxThreads threads are live
  /// (counted in dropped_thread_events()).
  static void Append(JournalEventKind kind, int level, const char* text);

  /// printf-style Append; formats into a stack buffer (truncating) first.
  /// NOT signal-safe (vsnprintf); use from normal context only.
  static void Appendf(JournalEventKind kind, int level, const char* format,
                      ...) __attribute__((format(printf, 3, 4)));

  /// The journal ships enabled; tests and the overhead benchmark toggle it.
  static void SetEnabled(bool enabled);
  static bool Enabled();

  /// CLOCK_MONOTONIC nanoseconds — the journal/log timestamp domain.
  static int64_t NowNanos();

  /// Dense per-process id of the calling thread, assigned on first use.
  /// Log records and tracer spans carry the same id.
  static uint32_t CurrentThreadId();

  /// Labels the calling thread in journal snapshots and log records
  /// ("main", "pool-worker-3"). `label` is copied (truncated to
  /// kJournalThreadLabelCapacity - 1 chars).
  static void SetThreadLabel(const char* label);
  /// The calling thread's label; "" when unset. Signal-safe.
  static const char* ThreadLabel();

  /// Process-wide last-known algorithm phase, e.g. "repartition.extract".
  /// `phase` must have static storage duration. Returns the previous phase.
  /// Appends a kPhase event when the phase actually changes.
  static const char* SetPhase(const char* phase);
  static const char* CurrentPhase();

  /// Fixed-buffer copy of the fatal-check text, written by the logging
  /// fatal path immediately before abort() so the SIGABRT postmortem can
  /// name the failed check. `crash_cause()` returns "" when never set.
  static void SetCrashCause(const char* text);
  static const char* crash_cause();

  /// Latest durable checkpoint generation committed by this process,
  /// published by the checkpoint writer after every successful atomic
  /// rename so crash/interrupt postmortems can point the operator at the
  /// newest resumable state. Signal-safe to read (one relaxed load);
  /// `checkpoint_generation()` returns -1 when no checkpoint was written.
  static void SetCheckpointGeneration(int64_t generation);
  static int64_t checkpoint_generation();

  /// Installs the interrupt hook, returning the previous one. The fail
  /// layer calls NotifyInterrupt at the first sticky interrupt transition;
  /// NotifyInterrupt records a kInterrupt event, then invokes the hook.
  static JournalInterruptHook SetInterruptHook(JournalInterruptHook hook);
  static void NotifyInterrupt(int kind, const char* detail);

  /// Signal-safe slot iteration for the crash handler: fills `out` with up
  /// to `max` views of slots that have ever been written, returns the
  /// count. Plain loads only.
  static size_t ReadRawThreads(JournalRawThreadView* out, size_t max);

  /// Events discarded because more than kJournalMaxThreads threads were
  /// live at once.
  static uint64_t dropped_thread_events();

  /// Total events ever appended (the global sequence high-water mark).
  static uint64_t total_events();

  /// Clears every ring, label, phase, crash cause, and counter that is not
  /// owned by a live other thread. Tests only; not thread-safe against
  /// concurrent appenders.
  static void ResetForTesting();
};

/// RAII phase marker: sets the process-wide phase for the scope, restoring
/// the previous phase on exit. `phase` must be a string literal.
class JournalPhaseScope {
 public:
  explicit JournalPhaseScope(const char* phase)
      : previous_(Journal::SetPhase(phase)) {}
  ~JournalPhaseScope() { Journal::SetPhase(previous_); }

  JournalPhaseScope(const JournalPhaseScope&) = delete;
  JournalPhaseScope& operator=(const JournalPhaseScope&) = delete;

 private:
  const char* previous_;
};

}  // namespace obs
}  // namespace srp

#endif  // SRP_OBS_JOURNAL_H_
