#include "obs/flight_recorder.h"

#include <dlfcn.h>
#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "fail/cancellation.h"
#include "obs/journal.h"
#include "obs/metrics_registry.h"
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
  bool dump_on_interrupt = true;
  int max_interrupt_dumps = 8;
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

RecorderState g_state;
char g_alt_stack[64 * 1024];         // SIGSTKSZ is not constexpr on glibc
char g_dump_buf[256 * 1024];         // the whole postmortem JSON
JournalRawThreadView g_raw_views[kJournalMaxThreads];

std::mutex g_written_mu;
std::vector<std::string>& WrittenPaths() {
  static auto* paths = new std::vector<std::string>();
  return *paths;
}

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

void BoundedCopy(char* dst, size_t cap, const char* src) {
  if (cap == 0) return;
  size_t n = 0;
  if (src != nullptr) {
    while (n + 1 < cap && src[n] != '\0') ++n;
    std::memcpy(dst, src, n);
  }
  dst[n] = '\0';
}

// ---------------------------------------------------------------------------
// Signal-safe JSON formatting: bounded appends into g_dump_buf, silently
// truncating (the buffer is sized for worst-case journal contents, so
// truncation means something is badly wrong anyway).
// ---------------------------------------------------------------------------

struct SigBuf {
  char* p;
  char* end;
};

void SigChar(SigBuf* b, char c) {
  if (b->p < b->end) *b->p++ = c;
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
void SigJournal(SigBuf* b) {
  SigStr(b, "{\"total_events\":");
  SigU64(b, Journal::total_events());
  SigStr(b, ",\"dropped_thread_events\":");
  SigU64(b, Journal::dropped_thread_events());
  SigStr(b, ",\"threads\":[");
  const size_t n = Journal::ReadRawThreads(g_raw_views, kJournalMaxThreads);
  bool first_thread = true;
  for (size_t i = 0; i < n; ++i) {
    const JournalRawThreadView& view = g_raw_views[i];
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
      if (event.seq == 0) continue;
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

/// Builds the whole signal postmortem into g_dump_buf and writes it with
/// write(2). Runs exactly once, on the crashing thread, on the alt stack.
void WriteSignalPostmortem(int sig, siginfo_t* info) {
  if (g_state.dir[0] == '\0') return;

  // postmortem.<pid>.signal.json
  char path[640];
  SigBuf pb{path, path + sizeof(path) - 1};
  SigStr(&pb, g_state.dir);
  SigStr(&pb, "/postmortem.");
  SigU64(&pb, static_cast<uint64_t>(getpid()));
  SigStr(&pb, ".signal.json");
  *pb.p = '\0';

  const char* crash_cause = Journal::crash_cause();
  const bool is_check = crash_cause[0] != '\0';

  SigBuf b{g_dump_buf, g_dump_buf + sizeof(g_dump_buf) - 1};
  SigStr(&b, "{\"postmortem_schema_version\":");
  SigI64(&b, kPostmortemSchemaVersion);
  SigStr(&b, ",\"kind\":\"");
  SigStr(&b, is_check ? "check" : "signal");
  SigStr(&b, "\",\"cause\":\"");
  if (is_check) {
    SigEscaped(&b, crash_cause);
  } else {
    SigStr(&b, SignalName(sig));
  }
  SigStr(&b, "\",\"signal\":{\"number\":");
  SigI64(&b, sig);
  SigStr(&b, ",\"name\":\"");
  SigStr(&b, SignalName(sig));
  SigStr(&b, "\",\"fault_addr\":\"");
  SigHex(&b, info != nullptr
                 ? reinterpret_cast<uint64_t>(info->si_addr)
                 : 0);
  SigStr(&b, "\"}");
  if (is_check) {
    SigStr(&b, ",\"crash_cause\":\"");
    SigEscaped(&b, crash_cause);
    SigChar(&b, '"');
  }
  SigStr(&b, ",\"thread\":{\"tid\":");
  SigU64(&b, Journal::CurrentThreadId());
  SigStr(&b, ",\"label\":\"");
  SigEscaped(&b, Journal::ThreadLabel());
  SigStr(&b, "\"},\"phase\":\"");
  SigEscaped(&b, Journal::CurrentPhase());
  SigChar(&b, '"');
  // Newest durable checkpoint generation, when one was committed: the
  // postmortem's pointer to the resumable state (one relaxed load —
  // signal-safe). Additive within schema version 1.
  const int64_t ckpt_gen = Journal::checkpoint_generation();
  if (ckpt_gen >= 0) {
    SigStr(&b, ",\"checkpoint\":{\"generation\":");
    SigI64(&b, ckpt_gen);
    SigChar(&b, '}');
  }
  SigStr(&b, ",\"provenance\":{\"git_sha\":\"");
  SigEscaped(&b, g_state.git_sha);
  SigStr(&b, "\",\"build_type\":\"");
  SigEscaped(&b, g_state.build_type);
  SigStr(&b, "\",\"compiler\":\"");
  SigEscaped(&b, g_state.compiler);
  SigStr(&b, "\"},\"backtrace\":[");
  void* frames[64];
  const int depth = backtrace(frames, 64);
  for (int i = 0; i < depth; ++i) {
    if (i > 0) SigChar(&b, ',');
    SigChar(&b, '"');
    SigFrame(&b, frames[i]);
    SigChar(&b, '"');
  }
  SigStr(&b, "],\"journal\":");
  SigJournal(&b);
  SigStr(&b, "}\n");

  const int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    const char* p = g_dump_buf;
    size_t remaining = static_cast<size_t>(b.p - g_dump_buf);
    while (remaining > 0) {
      const ssize_t written = write(fd, p, remaining);
      if (written <= 0) break;
      p += written;
      remaining -= static_cast<size_t>(written);
    }
    fsync(fd);
    close(fd);

    // One stderr line naming the artifact, signal-safe.
    char note[768];
    SigBuf nb{note, note + sizeof(note) - 1};
    SigStr(&nb, "srp: wrote postmortem ");
    SigStr(&nb, path);
    SigChar(&nb, '\n');
    ssize_t ignored = write(STDERR_FILENO, note,
                            static_cast<size_t>(nb.p - note));
    (void)ignored;
  }
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
  if (!g_state.dumping.exchange(true)) {
    WriteSignalPostmortem(sig, info);
  }
  // Chain: re-deliver to the previous handler (ASan's, gtest death tests')
  // or the default action, preserving the exit status.
  raise(sig);
}

Status WriteWholeFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open postmortem file: " + path);
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != content.size() || !close_ok) {
    return Status::IOError("short write to postmortem file: " + path);
  }
  return Status::OK();
}

JsonValue JournalThreadsToJson() {
  JsonValue journal = JsonValue::Object();
  journal.Set("total_events", Journal::total_events());
  journal.Set("dropped_thread_events", Journal::dropped_thread_events());
  JsonValue threads = JsonValue::Array();
  for (const JournalThreadSnapshot& thread : Journal::SnapshotThreads()) {
    JsonValue t = JsonValue::Object();
    t.Set("tid", static_cast<int64_t>(thread.tid));
    t.Set("label", thread.label);
    t.Set("live", thread.live);
    t.Set("total_appends", thread.total_appends);
    JsonValue events = JsonValue::Array();
    for (const JournalEvent& event : thread.events) {
      JsonValue e = JsonValue::Object();
      e.Set("seq", event.seq);
      e.Set("ts_ns", event.ts_ns);
      e.Set("kind", JournalEventKindName(event.kind));
      e.Set("level", static_cast<int64_t>(event.level));
      e.Set("text", std::string(event.text));
      events.Append(std::move(e));
    }
    t.Set("events", std::move(events));
    threads.Append(std::move(t));
  }
  journal.Set("threads", std::move(threads));
  return journal;
}

/// Interrupt hook registered with the journal: the fail layer calls this
/// (via Journal::NotifyInterrupt) at the first sticky interrupt transition.
void OnInterrupt(int kind, const char* detail) {
  if (!g_state.installed.load(std::memory_order_acquire)) return;
  if (!g_state.dump_on_interrupt || g_state.dir[0] == '\0') return;
  const int n = g_state.interrupt_dumps.fetch_add(1);
  if (n >= g_state.max_interrupt_dumps) return;
  std::string path = std::string(g_state.dir) + "/postmortem." +
                     std::to_string(getpid()) + ".interrupt." +
                     std::to_string(n) + ".json";
  const JsonValue doc = FlightRecorder::BuildInterruptPostmortem(kind, detail);
  const Status status = WriteWholeFile(path, doc.Dump(2) + "\n");
  if (status.ok()) {
    {
      std::lock_guard<std::mutex> lock(g_written_mu);
      WrittenPaths().push_back(path);
    }
    SRP_LOG(Info) << "wrote interrupt postmortem " << path;
  } else {
    SRP_LOG(Warning) << status.ToString();
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
  BoundedCopy(g_state.dir, sizeof(g_state.dir), dir.c_str());
  g_state.dump_on_interrupt = options.dump_on_interrupt;
  g_state.max_interrupt_dumps = options.max_interrupt_dumps;
  g_state.interrupt_dumps.store(0);
  g_state.stall_dumps.store(0);

  const RunReportProvenance provenance = BuildProvenance();
  BoundedCopy(g_state.git_sha, sizeof(g_state.git_sha),
              provenance.git_sha.c_str());
  BoundedCopy(g_state.build_type, sizeof(g_state.build_type),
              provenance.build_type.c_str());
  BoundedCopy(g_state.compiler, sizeof(g_state.compiler),
              provenance.compiler.c_str());

  if (options.thread_label != nullptr) {
    Journal::SetThreadLabel(options.thread_label);
  }

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

// Shared tail of the normal-context (interrupt/stall) postmortem shapes:
// thread, phase, checkpoint, provenance, backtrace, metrics, journal.
static void AppendNormalContextSections(JsonValue* doc_ptr) {
  JsonValue& doc = *doc_ptr;
  JsonValue thread = JsonValue::Object();
  thread.Set("tid", static_cast<int64_t>(Journal::CurrentThreadId()));
  thread.Set("label", std::string(Journal::ThreadLabel()));
  doc.Set("thread", std::move(thread));
  doc.Set("phase", std::string(Journal::CurrentPhase()));

  // Matches the signal path: present only when a durable checkpoint was
  // committed this process, so the operator knows resume is on the table.
  const int64_t ckpt_gen = Journal::checkpoint_generation();
  if (ckpt_gen >= 0) {
    JsonValue checkpoint = JsonValue::Object();
    checkpoint.Set("generation", ckpt_gen);
    doc.Set("checkpoint", std::move(checkpoint));
  }

  const RunReportProvenance provenance = BuildProvenance();
  JsonValue prov = JsonValue::Object();
  prov.Set("git_sha", provenance.git_sha);
  prov.Set("build_type", provenance.build_type);
  prov.Set("compiler", provenance.compiler);
  doc.Set("provenance", std::move(prov));

  JsonValue backtrace_json = JsonValue::Array();
  void* frames[64];
  const int depth = backtrace(frames, 64);
  char** symbols = backtrace_symbols(frames, depth);
  for (int i = 0; i < depth; ++i) {
    backtrace_json.Append(symbols != nullptr ? std::string(symbols[i])
                                             : std::string("?"));
  }
  std::free(symbols);
  doc.Set("backtrace", std::move(backtrace_json));

  // Normal-context dump → the metrics registry is safe to snapshot (this is
  // the section signal dumps must omit).
  doc.Set("metrics", MetricsRegistry::Get().ToJson());

  doc.Set("journal", JournalThreadsToJson());
}

JsonValue FlightRecorder::BuildInterruptPostmortem(int interrupt_kind,
                                                   const char* cause) {
  JsonValue doc = JsonValue::Object();
  doc.Set("postmortem_schema_version", kPostmortemSchemaVersion);
  doc.Set("kind", "interrupt");
  doc.Set("cause", cause != nullptr ? cause : "");
  JsonValue interrupt = JsonValue::Object();
  interrupt.Set("kind", interrupt_kind);
  interrupt.Set("kind_name", InterruptKindName(interrupt_kind));
  doc.Set("interrupt", std::move(interrupt));
  AppendNormalContextSections(&doc);
  return doc;
}

JsonValue FlightRecorder::BuildStallPostmortem(const char* cause,
                                               double window_ms) {
  JsonValue doc = JsonValue::Object();
  doc.Set("postmortem_schema_version", kPostmortemSchemaVersion);
  doc.Set("kind", "stall");
  doc.Set("cause", cause != nullptr ? cause : "");
  JsonValue stall = JsonValue::Object();
  stall.Set("window_ms", window_ms);
  stall.Set("phase", std::string(Journal::CurrentPhase()));
  doc.Set("stall", std::move(stall));
  AppendNormalContextSections(&doc);
  return doc;
}

Result<std::string> FlightRecorder::WriteStallPostmortem(const char* cause,
                                                         double window_ms) {
  if (g_state.dir[0] == '\0') {
    return Status::FailedPrecondition(
        "no postmortem directory configured (SRP_POSTMORTEM_DIR)");
  }
  const int n = g_state.stall_dumps.fetch_add(1);
  std::string path = std::string(g_state.dir) + "/postmortem." +
                     std::to_string(getpid()) + ".stall." + std::to_string(n) +
                     ".json";
  const JsonValue doc = BuildStallPostmortem(cause, window_ms);
  Status status = WriteWholeFile(path, doc.Dump(2) + "\n");
  if (!status.ok()) return status;
  std::lock_guard<std::mutex> lock(g_written_mu);
  WrittenPaths().push_back(path);
  return path;
}

Result<std::string> FlightRecorder::WriteInterruptPostmortem(
    int interrupt_kind, const char* cause) {
  if (g_state.dir[0] == '\0') {
    return Status::FailedPrecondition(
        "no postmortem directory configured (SRP_POSTMORTEM_DIR)");
  }
  const int n = g_state.interrupt_dumps.fetch_add(1);
  std::string path = std::string(g_state.dir) + "/postmortem." +
                     std::to_string(getpid()) + ".interrupt." +
                     std::to_string(n) + ".json";
  const JsonValue doc = BuildInterruptPostmortem(interrupt_kind, cause);
  Status status = WriteWholeFile(path, doc.Dump(2) + "\n");
  if (!status.ok()) return status;
  std::lock_guard<std::mutex> lock(g_written_mu);
  WrittenPaths().push_back(path);
  return path;
}

std::vector<std::string> FlightRecorder::written_postmortems() {
  std::lock_guard<std::mutex> lock(g_written_mu);
  return WrittenPaths();
}

Status ValidatePostmortemJson(const JsonValue& doc) {
  auto invalid = [](const std::string& what) {
    return Status::InvalidArgument("postmortem: " + what);
  };
  if (!doc.is_object()) return invalid("document is not an object");

  const JsonValue* version = doc.Find("postmortem_schema_version");
  if (version == nullptr || !version->is_number()) {
    return invalid("missing postmortem_schema_version");
  }
  const int v = static_cast<int>(version->number_value());
  if (v < 1 || v > kPostmortemSchemaVersion) {
    return invalid("unsupported postmortem_schema_version " +
                   std::to_string(v));
  }

  const JsonValue* kind = doc.Find("kind");
  if (kind == nullptr || !kind->is_string()) return invalid("missing kind");
  const std::string& kind_name = kind->string_value();
  if (kind_name != "signal" && kind_name != "check" &&
      kind_name != "interrupt" && kind_name != "stall") {
    return invalid("unknown kind '" + kind_name + "'");
  }

  const JsonValue* cause = doc.Find("cause");
  if (cause == nullptr || !cause->is_string() ||
      cause->string_value().empty()) {
    return invalid("missing cause");
  }

  const JsonValue* thread = doc.Find("thread");
  if (thread == nullptr || !thread->is_object() ||
      thread->Find("tid") == nullptr || !thread->Find("tid")->is_number() ||
      thread->Find("label") == nullptr ||
      !thread->Find("label")->is_string()) {
    return invalid("missing thread {tid, label}");
  }

  const JsonValue* phase = doc.Find("phase");
  if (phase == nullptr || !phase->is_string()) return invalid("missing phase");

  // Optional (written only when a durable checkpoint exists), but when
  // present it must point at a concrete generation.
  const JsonValue* checkpoint = doc.Find("checkpoint");
  if (checkpoint != nullptr &&
      (!checkpoint->is_object() || checkpoint->Find("generation") == nullptr ||
       !checkpoint->Find("generation")->is_number())) {
    return invalid("checkpoint section must carry a numeric generation");
  }

  const JsonValue* provenance = doc.Find("provenance");
  if (provenance == nullptr || !provenance->is_object()) {
    return invalid("missing provenance");
  }
  for (const char* key : {"git_sha", "build_type", "compiler"}) {
    const JsonValue* field = provenance->Find(key);
    if (field == nullptr || !field->is_string()) {
      return invalid(std::string("missing provenance.") + key);
    }
  }

  if (kind_name == "interrupt") {
    const JsonValue* interrupt = doc.Find("interrupt");
    if (interrupt == nullptr || !interrupt->is_object() ||
        interrupt->Find("kind_name") == nullptr ||
        !interrupt->Find("kind_name")->is_string()) {
      return invalid("missing interrupt {kind_name}");
    }
  } else if (kind_name == "stall") {
    const JsonValue* stall = doc.Find("stall");
    if (stall == nullptr || !stall->is_object() ||
        stall->Find("window_ms") == nullptr ||
        !stall->Find("window_ms")->is_number()) {
      return invalid("missing stall {window_ms}");
    }
  } else {
    const JsonValue* signal = doc.Find("signal");
    if (signal == nullptr || !signal->is_object() ||
        signal->Find("number") == nullptr ||
        !signal->Find("number")->is_number() ||
        signal->Find("name") == nullptr ||
        !signal->Find("name")->is_string()) {
      return invalid("missing signal {number, name}");
    }
    const JsonValue* backtrace_json = doc.Find("backtrace");
    if (backtrace_json == nullptr || !backtrace_json->is_array()) {
      return invalid("missing backtrace");
    }
  }

  const JsonValue* journal = doc.Find("journal");
  if (journal == nullptr || !journal->is_object()) {
    return invalid("missing journal");
  }
  const JsonValue* threads = journal->Find("threads");
  if (threads == nullptr || !threads->is_array()) {
    return invalid("missing journal.threads");
  }
  for (const JsonValue& t : threads->items()) {
    if (!t.is_object() || t.Find("tid") == nullptr ||
        !t.Find("tid")->is_number() || t.Find("events") == nullptr ||
        !t.Find("events")->is_array()) {
      return invalid("malformed journal thread entry");
    }
    for (const JsonValue& e : t.Find("events")->items()) {
      if (!e.is_object() || e.Find("seq") == nullptr ||
          !e.Find("seq")->is_number() || e.Find("ts_ns") == nullptr ||
          !e.Find("ts_ns")->is_number() || e.Find("kind") == nullptr ||
          !e.Find("kind")->is_string() || e.Find("text") == nullptr ||
          !e.Find("text")->is_string()) {
        return invalid("malformed journal event");
      }
    }
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace srp
