#ifndef SRP_UTIL_LOGGING_H_
#define SRP_UTIL_LOGGING_H_

#include <cstdint>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "util/status.h"

namespace srp {

/// Severity levels. kTrace is the compile-out verbose tier: SRP_VLOG()
/// statements vanish entirely from NDEBUG builds (unless
/// SRP_FORCE_TRACE_LOGGING is defined), and even in debug builds they are
/// dropped unless the level threshold is lowered to kTrace.
enum class LogLevel {
  kTrace = -1,
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
};

/// Stable lowercase level name ("trace", "debug", "info", "warn", "error") —
/// the value of the "level" field in JSON log lines.
const char* LogLevelName(LogLevel level);

/// Parses a level name (case-insensitive; accepts "warn"/"warning").
/// Returns false and leaves `*level` untouched on unknown input.
bool ParseLogLevel(const std::string& text, LogLevel* level);

/// Process-wide minimum level; messages below it are dropped.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/// One structured log record, delivered to sinks before any text
/// formatting so a sink can choose its own encoding.
///
/// Pointer fields (`file`, `thread_label`) reference storage that outlives
/// the Write call but not necessarily the process phase that produced it —
/// sinks that retain records must copy them.
struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  const char* file = "";       ///< __FILE__ of the statement
  int line = 0;
  std::string module;          ///< component derived from `file` ("core"...)
  int64_t ts_ns = 0;           ///< CLOCK_MONOTONIC ns, journal time domain
  uint32_t tid = 0;            ///< journal-dense thread id
  const char* thread_label = "";  ///< journal thread label ("" = unset)
  std::string message;
};

/// "[LEVEL module file:line] message" — the human-readable single line the
/// default stderr sink emits.
std::string FormatLogRecordText(const LogRecord& record);

/// One JSON object per record (no trailing newline): keys ts_ns, level,
/// tid, thread, module, file, line, msg — in that fixed order.
std::string FormatLogRecordJson(const LogRecord& record);

/// Component a path belongs to: "src/<comp>/..." → "<comp>"; files under
/// tests/, bench/, tools/, examples/ map to those names; anything else maps
/// to its basename without extension.
std::string LogModuleFromFile(const char* file);

/// Destination for log records. Implementations must be thread-safe and
/// should emit each record with a single write call so records from
/// concurrent threads never interleave.
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void Write(const LogRecord& record) = 0;
};

/// Replaces the process-wide sink and returns the previously installed one
/// (nullptr when the default stderr sink was active). Passing nullptr
/// restores the default sink. The caller keeps ownership of `sink` and must
/// keep it alive until another sink is installed.
LogSink* SetLogSink(LogSink* sink);

/// Text vs JSON-lines encoding for file sinks.
enum class LogFormat { kText, kJson };

/// Opens `path` for appending and installs an internally-owned file sink as
/// the process-wide destination (replacing any previous sink). Paths ending
/// in ".json" or ".jsonl" get JSON-lines encoding, everything else text;
/// "-" means stderr (restores the default sink). Sinks installed this way
/// are intentionally leaked — records may be in flight on other threads
/// when a replacement arrives.
Status InstallLogFile(const std::string& path);
Status InstallLogFile(const std::string& path, LogFormat format);

/// Per-module flood control: at most `max_per_second` records below
/// kWarning per module per one-second window; the first allowed record of
/// the next window is preceded by a synthetic kWarning record counting the
/// suppressed ones. 0 (the default) disables rate limiting. Warnings and
/// errors are never suppressed.
void SetLogRateLimit(int max_per_second);
int GetLogRateLimit();

/// Applies SRP_LOG_LEVEL (level name), SRP_LOG_OUT (path for
/// InstallLogFile) and SRP_LOG_RATE_LIMIT (records/module/second). Invalid
/// values are reported as kWarning records and otherwise ignored. Called by
/// the CLI and by bench_common::ObsSession so every binary honors the env.
void ConfigureLoggingFromEnv();

/// Sink that captures records in memory — for tests.
class CaptureLogSink : public LogSink {
 public:
  struct Record {
    LogLevel level;
    std::string text;    ///< FormatLogRecordText() of the record
    std::string module;
  };

  void Write(const LogRecord& record) override;

  std::vector<Record> records() const;
  size_t write_calls() const;
  void Clear();

 private:
  mutable std::mutex mu_;
  std::vector<Record> records_;
  size_t write_calls_ = 0;
};

namespace internal {

/// Stream-style log sink: emits on destruction. `fatal` aborts the process,
/// which is how SRP_CHECK reports programming errors (we do not use
/// exceptions, per the style guide). The fatal path first records the
/// failure text in the flight-recorder journal (Journal::SetCrashCause), so
/// the SIGABRT postmortem names the failed check.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line, bool fatal = false);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  bool fatal_;
  bool enabled_;
  std::ostringstream stream_;
};

/// glog-style helper: `operator&` binds looser than `<<` but tighter than
/// `?:`, letting SRP_VLOG discard its stream expression without warnings.
class LogMessageVoidify {
 public:
  void operator&(std::ostream&) {}
};

}  // namespace internal
}  // namespace srp

#define SRP_LOG(level)                                                   \
  ::srp::internal::LogMessage(::srp::LogLevel::k##level, __FILE__,       \
                              __LINE__)                                  \
      .stream()

/// Verbose (kTrace) logging tier. Compiled out of NDEBUG builds — operands
/// are parsed but never evaluated — unless SRP_FORCE_TRACE_LOGGING is
/// defined; debug builds evaluate it only when GetLogLevel() <= kTrace.
#if defined(NDEBUG) && !defined(SRP_FORCE_TRACE_LOGGING)
#define SRP_VLOG()                                       \
  true ? (void)0                                         \
       : ::srp::internal::LogMessageVoidify() &          \
             ::srp::internal::LogMessage(                \
                 ::srp::LogLevel::kTrace, __FILE__,      \
                 __LINE__)                               \
                 .stream()
#else
#define SRP_VLOG()                                       \
  (::srp::GetLogLevel() > ::srp::LogLevel::kTrace)       \
      ? (void)0                                          \
      : ::srp::internal::LogMessageVoidify() &           \
            ::srp::internal::LogMessage(                 \
                ::srp::LogLevel::kTrace, __FILE__,       \
                __LINE__)                                \
                .stream()
#endif

/// Invariant check for programmer errors; aborts with a message on failure.
#define SRP_CHECK(cond)                                                  \
  if (!(cond))                                                           \
  ::srp::internal::LogMessage(::srp::LogLevel::kError, __FILE__,         \
                              __LINE__, /*fatal=*/true)                  \
      .stream()                                                          \
      << "Check failed: " #cond " "

#define SRP_CHECK_OK(status_expr)                                        \
  do {                                                                   \
    const ::srp::Status srp_check_status_ = (status_expr);               \
    SRP_CHECK(srp_check_status_.ok()) << srp_check_status_.ToString();   \
  } while (0)

/// Debug-only invariant check. In release builds (NDEBUG) the condition is
/// parsed and odr-used — so it cannot rot and its operands never trigger
/// unused warnings — but `true || (cond)` short-circuits before evaluating
/// it, the check folds away entirely, and any side effects in `cond` are
/// NOT performed. Debug builds behave exactly like SRP_CHECK.
#ifdef NDEBUG
#define SRP_DCHECK(cond) SRP_CHECK(true || (cond))
#else
#define SRP_DCHECK(cond) SRP_CHECK(cond)
#endif

#endif  // SRP_UTIL_LOGGING_H_
