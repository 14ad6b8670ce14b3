#ifndef SRP_OBS_FLIGHT_RECORDER_H_
#define SRP_OBS_FLIGHT_RECORDER_H_

#include <string>

#include "util/json.h"
#include "util/status.h"

namespace srp {
namespace obs {

/// Version stamped into every postmortem document ("postmortem_schema_
/// version"). Bump on breaking changes; additions are fine within a version.
inline constexpr int kPostmortemSchemaVersion = 1;

/// Interrupt dumps are capped per process so a pathological loop of
/// deadline-bounded runs cannot fill the disk.
inline constexpr int kMaxInterruptDumps = 8;

struct FlightRecorderOptions {
  /// Directory postmortem dumps land in. Empty → $SRP_POSTMORTEM_DIR;
  /// still empty → handlers stay armed but nothing is written to disk.
  /// Created (one level) if missing.
  std::string postmortem_dir;
  /// Arm the SIGSEGV/SIGABRT/SIGBUS/SIGFPE crash handler (on an alternate
  /// stack; the previous disposition is chained to after the dump).
  bool install_signal_handlers = true;
};

/// What a postmortem is about. A signal dump whose process recorded a
/// crash cause (a failed SRP_CHECK) is written as kind "check".
enum class PostmortemKind { kSignal, kInterrupt, kStall };

/// The kind-specific part of a postmortem; every kind shares the rest.
struct PostmortemEvent {
  PostmortemKind kind = PostmortemKind::kInterrupt;
  /// Interrupt and stall dumps: the "cause" text. Signal dumps derive
  /// theirs from the signal or the crash cause.
  const char* cause = "";
  /// kSignal: the signal number and the faulting address.
  int signal = 0;
  const void* fault_addr = nullptr;
  /// kInterrupt: the numeric fail::InterruptKind value.
  int interrupt_kind = 0;
  /// kStall: how long the watchdog saw no forward progress.
  double window_ms = 0.0;
};

/// The crash-forensics half of the flight recorder (DESIGN.md §11): a
/// signal-safe crash handler plus an interrupt hook, both of which dump a
/// versioned postmortem JSON — merged journal, backtrace, build provenance,
/// last-known phase — for `tools/srp_inspect`.
///
/// One signal-safe formatter writes every kind: static or caller-owned
/// buffers only, no allocation, no locks, no stdio. It streams the document
/// through a fixed buffer, write(2)ing each time the buffer fills, so no
/// journal size can truncate a dump. Every kind shares the same sections.
class FlightRecorder {
 public:
  /// Idempotent; the first call wins and later calls are no-ops (OK).
  /// Labels the calling thread "main" in the journal.
  static Status Install(const FlightRecorderOptions& options = {});
  static bool installed();

  /// Restores the previous signal dispositions and interrupt hook and
  /// resets the interrupt-dump budget. Tests only.
  static void Uninstall();

  /// The effective dump directory ("" when dumps are disabled).
  static std::string postmortem_dir();

  /// The postmortem document for `event`, rendered in normal context: the
  /// bytes WritePostmortem would write. Provenance is the copy taken at
  /// Install (empty strings before it).
  static std::string RenderPostmortem(const PostmortemEvent& event);

  /// Writes and fsyncs postmortem.<pid>.{signal,interrupt.<n>,stall.<n>}
  /// .json in the dump directory, returning the path. Fails when no
  /// directory is configured, on a write error (IOError), and for an
  /// interrupt dump past kMaxInterruptDumps (OutOfRange).
  static Result<std::string> WritePostmortem(const PostmortemEvent& event);
};

/// Structural validation of a parsed postmortem document (every kind).
/// Returns InvalidArgument naming the first violated invariant.
Status ValidatePostmortemJson(const JsonValue& doc);

}  // namespace obs
}  // namespace srp

#endif  // SRP_OBS_FLIGHT_RECORDER_H_
