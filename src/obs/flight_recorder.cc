#include "obs/flight_recorder.h"

#include <dlfcn.h>
#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "fail/cancellation.h"
#include "obs/journal.h"
#include "obs/run_report.h"
#include "util/logging.h"

namespace srp {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Static recorder state. Everything the crash handler touches lives here in
// fixed-size buffers: the handler must not allocate, lock, or call stdio.
// ---------------------------------------------------------------------------

constexpr int kSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE};
constexpr size_t kNumSignals = sizeof(kSignals) / sizeof(kSignals[0]);

struct RecorderState {
  std::atomic<bool> installed{false};
  std::atomic<bool> dumping{false};
  bool handlers_armed = false;
  std::atomic<int> interrupt_dumps{0};
  std::atomic<int> stall_dumps{0};
  char dir[512] = {};
  // Provenance snapshot taken at Install time (BuildProvenance allocates,
  // so it cannot run inside the handler).
  char git_sha[64] = {};
  char build_type[32] = {};
  char compiler[96] = {};
  struct sigaction previous[kNumSignals] = {};
  JournalInterruptHook previous_hook = nullptr;
};

/// The buffers one dump streams through. The crash handler uses the static
/// g_crash_scratch; a normal-context dump allocates its own, so a crash
/// during an interrupt or stall dump cannot scribble over it.
struct DumpScratch {
  char buf[16 * 1024];
  JournalRawThreadView views[kJournalMaxThreads];
};

RecorderState g_state;
char g_alt_stack[64 * 1024];  // SIGSTKSZ is not constexpr on glibc
DumpScratch g_crash_scratch;

const char* SignalName(int sig) {
  switch (sig) {
    case SIGSEGV:
      return "SIGSEGV";
    case SIGABRT:
      return "SIGABRT";
    case SIGBUS:
      return "SIGBUS";
    case SIGFPE:
      return "SIGFPE";
  }
  return "SIG?";
}

const char* InterruptKindName(int kind) {
  switch (static_cast<InterruptKind>(kind)) {
    case InterruptKind::kNone:
      return "none";
    case InterruptKind::kCancelled:
      return "cancelled";
    case InterruptKind::kDeadlineExceeded:
      return "deadline_exceeded";
    case InterruptKind::kInjectedFault:
      return "injected_fault";
  }
  return "?";
}

/// The document's "kind" and the file name's middle part, by
/// PostmortemKind.
constexpr const char* kPostmortemKindNames[] = {"signal", "interrupt",
                                                "stall"};

const char* PostmortemKindName(PostmortemKind kind) {
  return kPostmortemKindNames[static_cast<int>(kind)];
}

// ---------------------------------------------------------------------------
// Signal-safe JSON formatting into a fixed buffer. With a sink (an fd, or a
// string in normal context) a full buffer is flushed to it and reused, so a
// document of any size comes out whole; without one, appends past the end
// are dropped (paths and the stderr note).
// ---------------------------------------------------------------------------

struct SigBuf {
  char* begin;
  char* p;
  char* end;
  int fd = -1;
  std::string* out = nullptr;
  bool write_failed = false;
};

SigBuf FixedBuf(char* buf, size_t size, int fd = -1,
                std::string* out = nullptr) {
  return SigBuf{buf, buf, buf + size, fd, out};
}

/// Hands the buffered bytes to the sink and empties the buffer; false when
/// there is no sink.
bool SigFlush(SigBuf* b) {
  const char* q = b->begin;
  size_t remaining = static_cast<size_t>(b->p - b->begin);
  if (b->out != nullptr) {
    b->out->append(q, remaining);
  } else if (b->fd >= 0) {
    while (remaining > 0 && !b->write_failed) {
      const ssize_t written = write(b->fd, q, remaining);
      if (written < 0 && errno == EINTR) continue;
      if (written <= 0) {
        b->write_failed = true;
        break;
      }
      q += written;
      remaining -= static_cast<size_t>(written);
    }
  } else {
    return false;
  }
  b->p = b->begin;
  return true;
}

void SigChar(SigBuf* b, char c) {
  if (b->p == b->end && !SigFlush(b)) return;
  *b->p++ = c;
}

void SigStr(SigBuf* b, const char* s) {
  while (*s != '\0') SigChar(b, *s++);
}

void SigEscaped(SigBuf* b, const char* s) {
  for (; *s != '\0'; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    if (c == '"' || c == '\\') {
      SigChar(b, '\\');
      SigChar(b, static_cast<char>(c));
    } else if (c == '\n') {
      SigStr(b, "\\n");
    } else if (c < 0x20) {
      SigStr(b, "\\u00");
      const char* hex = "0123456789abcdef";
      SigChar(b, hex[c >> 4]);
      SigChar(b, hex[c & 0xf]);
    } else {
      SigChar(b, static_cast<char>(c));
    }
  }
}

void SigU64(SigBuf* b, uint64_t v) {
  char tmp[24];
  int n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) SigChar(b, tmp[--n]);
}

void SigI64(SigBuf* b, int64_t v) {
  if (v < 0) {
    SigChar(b, '-');
    SigU64(b, static_cast<uint64_t>(-(v + 1)) + 1);
  } else {
    SigU64(b, static_cast<uint64_t>(v));
  }
}

/// A non-negative number with three decimals (NaN and negatives as 0).
void SigFixed3(SigBuf* b, double v) {
  const uint64_t thousandths =
      v >= 0.0 ? static_cast<uint64_t>(v * 1000.0 + 0.5) : 0;
  SigU64(b, thousandths / 1000);
  SigChar(b, '.');
  SigChar(b, static_cast<char>('0' + thousandths / 100 % 10));
  SigChar(b, static_cast<char>('0' + thousandths / 10 % 10));
  SigChar(b, static_cast<char>('0' + thousandths % 10));
}

void SigHex(SigBuf* b, uint64_t v) {
  SigStr(b, "0x");
  const char* hex = "0123456789abcdef";
  bool started = false;
  for (int shift = 60; shift >= 0; shift -= 4) {
    const unsigned digit = (v >> shift) & 0xf;
    if (digit != 0) started = true;
    if (started) SigChar(b, hex[digit]);
  }
  if (!started) SigChar(b, '0');
}

/// One backtrace frame as "0x<pc> <symbol>+0x<offset> (<object>)". dladdr
/// is not formally async-signal-safe but does not allocate in glibc; crash
/// reporters (absl, breakpad) accept the same tradeoff for named frames.
void SigFrame(SigBuf* b, void* pc) {
  SigHex(b, reinterpret_cast<uint64_t>(pc));
  Dl_info info;
  if (dladdr(pc, &info) != 0) {
    if (info.dli_sname != nullptr) {
      SigChar(b, ' ');
      SigEscaped(b, info.dli_sname);
      SigStr(b, "+");
      SigHex(b, reinterpret_cast<uint64_t>(pc) -
                    reinterpret_cast<uint64_t>(info.dli_saddr));
    }
    if (info.dli_fname != nullptr) {
      SigStr(b, " (");
      SigEscaped(b, info.dli_fname);
      SigChar(b, ')');
    }
  }
}

/// Emits the journal section from raw slot views — per-thread groups in
/// ring order; srp_inspect merges across threads by seq.
void SigJournal(SigBuf* b, JournalRawThreadView* views) {
  SigStr(b, "{\"total_events\":");
  SigU64(b, Journal::total_events());
  SigStr(b, ",\"dropped_thread_events\":");
  SigU64(b, Journal::dropped_thread_events());
  SigStr(b, ",\"threads\":[");
  const size_t n = Journal::ReadRawThreads(views, kJournalMaxThreads);
  bool first_thread = true;
  for (size_t i = 0; i < n; ++i) {
    const JournalRawThreadView& view = views[i];
    if (view.total_appends == 0) continue;
    if (!first_thread) SigChar(b, ',');
    first_thread = false;
    SigStr(b, "{\"tid\":");
    SigU64(b, view.tid);
    SigStr(b, ",\"label\":\"");
    SigEscaped(b, view.label != nullptr ? view.label : "");
    SigStr(b, "\",\"live\":");
    SigStr(b, view.live ? "true" : "false");
    SigStr(b, ",\"total_appends\":");
    SigU64(b, view.total_appends);
    SigStr(b, ",\"events\":[");
    const uint64_t retained =
        view.total_appends < view.capacity ? view.total_appends
                                           : view.capacity;
    const uint64_t start =
        view.total_appends > view.capacity ? view.total_appends % view.capacity
                                           : 0;
    bool first_event = true;
    for (uint64_t j = 0; j < retained; ++j) {
      const JournalEvent& event = view.ring[(start + j) % view.capacity];
      if (event.seq == 0) continue;  // torn or not yet published
      if (!first_event) SigChar(b, ',');
      first_event = false;
      SigStr(b, "{\"seq\":");
      SigU64(b, event.seq);
      SigStr(b, ",\"ts_ns\":");
      SigI64(b, event.ts_ns);
      SigStr(b, ",\"kind\":\"");
      SigStr(b, JournalEventKindName(event.kind));
      SigStr(b, "\",\"level\":");
      SigI64(b, event.level);
      SigStr(b, ",\"text\":\"");
      char text[kJournalTextCapacity];
      std::memcpy(text, event.text, kJournalTextCapacity);
      text[kJournalTextCapacity - 1] = '\0';  // tolerate a torn write
      SigEscaped(b, text);
      SigStr(b, "\"}");
    }
    SigStr(b, "]}");
  }
  SigStr(b, "]}");
}

/// The one postmortem formatter: streams `event`'s document through
/// `scratch` to `fd`, or to `out` when `fd` < 0. Every kind shares the
/// sections after its own. Signal-safe with an fd. False on a write error.
bool StreamPostmortem(const PostmortemEvent& event, DumpScratch* scratch,
                      int fd, std::string* out) {
  SigBuf buf = FixedBuf(scratch->buf, sizeof(scratch->buf), fd, out);
  SigBuf* b = &buf;
  const char* cause = event.cause != nullptr ? event.cause : "";
  const char* crash_cause = Journal::crash_cause();
  const bool is_check =
      event.kind == PostmortemKind::kSignal && crash_cause[0] != '\0';

  SigStr(b, "{\"postmortem_schema_version\":");
  SigI64(b, kPostmortemSchemaVersion);
  SigStr(b, ",\"kind\":\"");
  SigStr(b, is_check ? "check" : PostmortemKindName(event.kind));
  SigStr(b, "\",\"cause\":\"");
  switch (event.kind) {
    case PostmortemKind::kSignal:
      SigEscaped(b, is_check ? crash_cause : SignalName(event.signal));
      SigStr(b, "\",\"signal\":{\"number\":");
      SigI64(b, event.signal);
      SigStr(b, ",\"name\":\"");
      SigStr(b, SignalName(event.signal));
      SigStr(b, "\",\"fault_addr\":\"");
      SigHex(b, reinterpret_cast<uint64_t>(event.fault_addr));
      SigStr(b, "\"}");
      if (is_check) {
        SigStr(b, ",\"crash_cause\":\"");
        SigEscaped(b, crash_cause);
        SigChar(b, '"');
      }
      break;
    case PostmortemKind::kInterrupt:
      SigEscaped(b, cause);
      SigStr(b, "\",\"interrupt\":{\"kind\":");
      SigI64(b, event.interrupt_kind);
      SigStr(b, ",\"kind_name\":\"");
      SigStr(b, InterruptKindName(event.interrupt_kind));
      SigStr(b, "\"}");
      break;
    case PostmortemKind::kStall:
      SigEscaped(b, cause);
      SigStr(b, "\",\"stall\":{\"window_ms\":");
      SigFixed3(b, event.window_ms);
      SigStr(b, ",\"phase\":\"");
      SigEscaped(b, Journal::CurrentPhase());
      SigStr(b, "\"}");
      break;
  }

  SigStr(b, ",\"thread\":{\"tid\":");
  SigU64(b, Journal::CurrentThreadId());
  SigStr(b, ",\"label\":\"");
  SigEscaped(b, Journal::ThreadLabel());
  SigStr(b, "\"},\"phase\":\"");
  SigEscaped(b, Journal::CurrentPhase());
  SigChar(b, '"');
  // Newest durable checkpoint generation, when one was committed: the
  // postmortem's pointer to the resumable state (one relaxed load).
  const int64_t ckpt_gen = Journal::checkpoint_generation();
  if (ckpt_gen >= 0) {
    SigStr(b, ",\"checkpoint\":{\"generation\":");
    SigI64(b, ckpt_gen);
    SigChar(b, '}');
  }
  SigStr(b, ",\"provenance\":{\"git_sha\":\"");
  SigEscaped(b, g_state.git_sha);
  SigStr(b, "\",\"build_type\":\"");
  SigEscaped(b, g_state.build_type);
  SigStr(b, "\",\"compiler\":\"");
  SigEscaped(b, g_state.compiler);
  SigStr(b, "\"},\"backtrace\":[");
  void* frames[64];
  const int depth = backtrace(frames, 64);
  for (int i = 0; i < depth; ++i) {
    if (i > 0) SigChar(b, ',');
    SigChar(b, '"');
    SigFrame(b, frames[i]);
    SigChar(b, '"');
  }
  SigStr(b, "],\"journal\":");
  SigJournal(b, scratch->views);
  SigStr(b, "}\n");
  SigFlush(b);
  return !b->write_failed;
}

/// Creates `path`, streams the postmortem into it and fsyncs it.
/// Signal-safe. False when any step fails.
bool WritePostmortemFile(const char* path, const PostmortemEvent& event,
                         DumpScratch* scratch) {
  const int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  const bool streamed = StreamPostmortem(event, scratch, fd, nullptr);
  const bool synced = fsync(fd) == 0;
  return close(fd) == 0 && streamed && synced;
}

/// <dir>/postmortem.<pid>.signal.json, or .<kind>.<n>.json for the
/// numbered normal-context kinds.
void PostmortemPath(char* path, size_t size, PostmortemKind kind, int n) {
  SigBuf pb = FixedBuf(path, size - 1);
  SigStr(&pb, g_state.dir);
  SigStr(&pb, "/postmortem.");
  SigU64(&pb, static_cast<uint64_t>(getpid()));
  SigChar(&pb, '.');
  SigStr(&pb, PostmortemKindName(kind));
  if (kind != PostmortemKind::kSignal) {
    SigChar(&pb, '.');
    SigI64(&pb, n);
  }
  SigStr(&pb, ".json");
  *pb.p = '\0';
}

size_t SignalIndex(int sig) {
  for (size_t i = 0; i < kNumSignals; ++i) {
    if (kSignals[i] == sig) return i;
  }
  return 0;
}

void CrashHandler(int sig, siginfo_t* info, void* /*ucontext*/) {
  // Restore the previous disposition FIRST: a fault inside the dumper then
  // terminates the process instead of recursing into this handler.
  sigaction(sig, &g_state.previous[SignalIndex(sig)], nullptr);
  // Dump once, on the crashing thread, on the alt stack.
  if (!g_state.dumping.exchange(true) && g_state.dir[0] != '\0') {
    char path[640];
    PostmortemPath(path, sizeof(path), PostmortemKind::kSignal, 0);
    const PostmortemEvent event{
        .kind = PostmortemKind::kSignal,
        .signal = sig,
        .fault_addr = info != nullptr ? info->si_addr : nullptr};
    if (WritePostmortemFile(path, event, &g_crash_scratch)) {
      // One stderr line naming the artifact, through the now idle buffer.
      SigBuf note = FixedBuf(g_crash_scratch.buf, sizeof(g_crash_scratch.buf),
                             STDERR_FILENO);
      SigStr(&note, "srp: wrote postmortem ");
      SigStr(&note, path);
      SigChar(&note, '\n');
      SigFlush(&note);
    }
  }
  // Chain: re-deliver to the previous handler (ASan's, gtest death tests')
  // or the default action, preserving the exit status.
  raise(sig);
}

/// Interrupt hook registered with the journal: the fail layer calls this
/// (via Journal::NotifyInterrupt) at the first sticky interrupt transition.
void OnInterrupt(int kind, const char* detail) {
  if (!g_state.installed.load(std::memory_order_acquire)) return;
  if (g_state.dir[0] == '\0') return;
  const Result<std::string> path = FlightRecorder::WritePostmortem(
      {.kind = PostmortemKind::kInterrupt,
       .cause = detail,
       .interrupt_kind = kind});
  if (path.ok()) {
    SRP_LOG(Info) << "wrote interrupt postmortem " << *path;
  } else if (path.status().code() != StatusCode::kOutOfRange) {
    // (Past the per-process cap is the budget working, not a failure.)
    SRP_LOG(Warning) << path.status().ToString();
  }
}

}  // namespace

Status FlightRecorder::Install(const FlightRecorderOptions& options) {
  if (g_state.installed.load(std::memory_order_acquire)) {
    return Status::OK();
  }

  std::string dir = options.postmortem_dir;
  if (dir.empty()) {
    if (const char* env = std::getenv("SRP_POSTMORTEM_DIR")) dir = env;
  }
  if (!dir.empty()) {
    // Best-effort single-level create; an unwritable dir surfaces as a
    // failed dump later, never as a crash-path error.
    ::mkdir(dir.c_str(), 0755);
  }
  std::snprintf(g_state.dir, sizeof(g_state.dir), "%s", dir.c_str());
  g_state.interrupt_dumps.store(0);
  g_state.stall_dumps.store(0);

  const RunReportProvenance provenance = BuildProvenance();
  std::snprintf(g_state.git_sha, sizeof(g_state.git_sha), "%s",
                provenance.git_sha.c_str());
  std::snprintf(g_state.build_type, sizeof(g_state.build_type), "%s",
                provenance.build_type.c_str());
  std::snprintf(g_state.compiler, sizeof(g_state.compiler), "%s",
                provenance.compiler.c_str());

  Journal::SetThreadLabel("main");

  // Warm up the unwinder: the first backtrace() call may dlopen/allocate,
  // which must not happen inside the signal handler.
  void* warmup[4];
  (void)backtrace(warmup, 4);

  if (options.install_signal_handlers) {
    stack_t alt = {};
    alt.ss_sp = g_alt_stack;
    alt.ss_size = sizeof(g_alt_stack);
    alt.ss_flags = 0;
    if (sigaltstack(&alt, nullptr) != 0) {
      return Status::Internal("sigaltstack failed");
    }
    struct sigaction action = {};
    action.sa_sigaction = &CrashHandler;
    action.sa_flags = SA_SIGINFO | SA_ONSTACK;
    sigemptyset(&action.sa_mask);
    for (size_t i = 0; i < kNumSignals; ++i) {
      if (sigaction(kSignals[i], &action, &g_state.previous[i]) != 0) {
        return Status::Internal("sigaction failed");
      }
    }
    g_state.handlers_armed = true;
  }

  g_state.previous_hook = Journal::SetInterruptHook(&OnInterrupt);
  g_state.installed.store(true, std::memory_order_release);
  return Status::OK();
}

bool FlightRecorder::installed() {
  return g_state.installed.load(std::memory_order_acquire);
}

void FlightRecorder::Uninstall() {
  if (!g_state.installed.exchange(false)) return;
  if (g_state.handlers_armed) {
    for (size_t i = 0; i < kNumSignals; ++i) {
      sigaction(kSignals[i], &g_state.previous[i], nullptr);
    }
    g_state.handlers_armed = false;
  }
  Journal::SetInterruptHook(g_state.previous_hook);
  g_state.previous_hook = nullptr;
  g_state.interrupt_dumps.store(0);
  g_state.stall_dumps.store(0);
  g_state.dumping.store(false);
}

std::string FlightRecorder::postmortem_dir() { return g_state.dir; }

std::string FlightRecorder::RenderPostmortem(const PostmortemEvent& event) {
  const auto scratch = std::make_unique<DumpScratch>();
  std::string out;
  StreamPostmortem(event, scratch.get(), -1, &out);
  return out;
}

Result<std::string> FlightRecorder::WritePostmortem(
    const PostmortemEvent& event) {
  if (g_state.dir[0] == '\0') {
    return Status::FailedPrecondition(
        "no postmortem directory configured (SRP_POSTMORTEM_DIR)");
  }
  int n = 0;
  if (event.kind == PostmortemKind::kInterrupt) {
    n = g_state.interrupt_dumps.fetch_add(1);
    if (n >= kMaxInterruptDumps) {
      return Status::OutOfRange("interrupt postmortem cap of " +
                                std::to_string(kMaxInterruptDumps) +
                                " reached");
    }
  } else if (event.kind == PostmortemKind::kStall) {
    n = g_state.stall_dumps.fetch_add(1);
  }
  char path[640];
  PostmortemPath(path, sizeof(path), event.kind, n);
  const auto scratch = std::make_unique<DumpScratch>();
  if (!WritePostmortemFile(path, event, scratch.get())) {
    return Status::IOError(std::string("cannot write postmortem file: ") +
                           path);
  }
  return std::string(path);
}

Status ValidatePostmortemJson(const JsonValue& doc) {
  using Kind = JsonValue::Kind;
  auto invalid = [](const std::string& what) {
    return Status::InvalidArgument("postmortem: " + what);
  };
  // True when `parent` is an object whose `key` is of kind `kind`.
  const auto has_field = [](const JsonValue* parent, const char* key,
                           Kind kind) {
    if (parent == nullptr || !parent->is_object()) return false;
    const JsonValue* field = parent->Find(key);
    return field != nullptr && field->kind() == kind;
  };
  if (!doc.is_object()) return invalid("document is not an object");

  if (!has_field(&doc, "postmortem_schema_version", Kind::kNumber)) {
    return invalid("missing postmortem_schema_version");
  }
  const int v =
      static_cast<int>(doc.Find("postmortem_schema_version")->number_value());
  if (v < 1 || v > kPostmortemSchemaVersion) {
    return invalid("unsupported postmortem_schema_version " +
                   std::to_string(v));
  }

  if (!has_field(&doc, "kind", Kind::kString)) return invalid("missing kind");
  const std::string& kind_name = doc.Find("kind")->string_value();
  if (kind_name != "signal" && kind_name != "check" &&
      kind_name != "interrupt" && kind_name != "stall") {
    return invalid("unknown kind '" + kind_name + "'");
  }

  if (!has_field(&doc, "cause", Kind::kString) ||
      doc.Find("cause")->string_value().empty()) {
    return invalid("missing cause");
  }

  const JsonValue* thread = doc.Find("thread");
  if (!has_field(thread, "tid", Kind::kNumber) ||
      !has_field(thread, "label", Kind::kString)) {
    return invalid("missing thread {tid, label}");
  }

  if (!has_field(&doc, "phase", Kind::kString)) return invalid("missing phase");

  // Optional (written only when a durable checkpoint exists), but when
  // present it must point at a concrete generation.
  const JsonValue* checkpoint = doc.Find("checkpoint");
  if (checkpoint != nullptr &&
      !has_field(checkpoint, "generation", Kind::kNumber)) {
    return invalid("checkpoint section must carry a numeric generation");
  }

  const JsonValue* provenance = doc.Find("provenance");
  if (provenance == nullptr || !provenance->is_object()) {
    return invalid("missing provenance");
  }
  for (const char* key : {"git_sha", "build_type", "compiler"}) {
    if (!has_field(provenance, key, Kind::kString)) {
      return invalid(std::string("missing provenance.") + key);
    }
  }

  if (kind_name == "interrupt") {
    if (!has_field(doc.Find("interrupt"), "kind_name", Kind::kString)) {
      return invalid("missing interrupt {kind_name}");
    }
  } else if (kind_name == "stall") {
    if (!has_field(doc.Find("stall"), "window_ms", Kind::kNumber)) {
      return invalid("missing stall {window_ms}");
    }
  } else {
    const JsonValue* signal = doc.Find("signal");
    if (!has_field(signal, "number", Kind::kNumber) ||
        !has_field(signal, "name", Kind::kString)) {
      return invalid("missing signal {number, name}");
    }
  }

  if (!has_field(&doc, "backtrace", Kind::kArray)) {
    return invalid("missing backtrace");
  }

  const JsonValue* journal = doc.Find("journal");
  if (journal == nullptr || !journal->is_object()) {
    return invalid("missing journal");
  }
  if (!has_field(journal, "threads", Kind::kArray)) {
    return invalid("missing journal.threads");
  }
  for (const JsonValue& t : journal->Find("threads")->items()) {
    if (!has_field(&t, "tid", Kind::kNumber) ||
        !has_field(&t, "events", Kind::kArray)) {
      return invalid("malformed journal thread entry");
    }
    for (const JsonValue& e : t.Find("events")->items()) {
      if (!has_field(&e, "seq", Kind::kNumber) ||
          !has_field(&e, "ts_ns", Kind::kNumber) ||
          !has_field(&e, "kind", Kind::kString) ||
          !has_field(&e, "text", Kind::kString)) {
        return invalid("malformed journal event");
      }
    }
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace srp
