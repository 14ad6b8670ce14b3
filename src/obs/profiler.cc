#include "obs/profiler.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

#include "obs/journal.h"
#include "util/logging.h"

#if defined(__linux__)
#include <execinfo.h>
#include <linux/perf_event.h>
#include <signal.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <cxxabi.h>
#include <dlfcn.h>
#define SRP_PROFILER_SUPPORTED 1
#else
#define SRP_PROFILER_SUPPORTED 0
#endif

namespace srp {
namespace obs {

HwCounterValues& HwCounterValues::operator+=(const HwCounterValues& other) {
  cycles += other.cycles;
  instructions += other.instructions;
  cache_references += other.cache_references;
  cache_misses += other.cache_misses;
  branch_misses += other.branch_misses;
  time_enabled_ns += other.time_enabled_ns;
  time_running_ns += other.time_running_ns;
  return *this;
}

HwCounterValues HwCounterValues::operator-(
    const HwCounterValues& other) const {
  HwCounterValues delta;
  delta.cycles = cycles - other.cycles;
  delta.instructions = instructions - other.instructions;
  delta.cache_references = cache_references - other.cache_references;
  delta.cache_misses = cache_misses - other.cache_misses;
  delta.branch_misses = branch_misses - other.branch_misses;
  delta.time_enabled_ns = time_enabled_ns - other.time_enabled_ns;
  delta.time_running_ns = time_running_ns - other.time_running_ns;
  return delta;
}

#if SRP_PROFILER_SUPPORTED

namespace {

int PerfEventOpen(perf_event_attr* attr, pid_t pid, int cpu, int group_fd,
                  unsigned long flags) {
  return static_cast<int>(
      syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags));
}

perf_event_attr MakeCountingAttr(uint64_t config, bool leader) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof(attr);
  attr.config = config;
  attr.disabled = leader ? 1 : 0;  // the whole group toggles via the leader
  attr.exclude_kernel = 1;  // user-space only: allowed at paranoid level 2
  attr.exclude_hv = 1;
  attr.inherit = 0;  // grouped reads do not support inherited counters
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  return attr;
}

}  // namespace

HwCounterGroup::HwCounterGroup() {
  static constexpr uint64_t kConfigs[5] = {
      PERF_COUNT_HW_CPU_CYCLES, PERF_COUNT_HW_INSTRUCTIONS,
      PERF_COUNT_HW_CACHE_REFERENCES, PERF_COUNT_HW_CACHE_MISSES,
      PERF_COUNT_HW_BRANCH_MISSES};

  perf_event_attr leader_attr = MakeCountingAttr(kConfigs[0], /*leader=*/true);
  leader_fd_ = PerfEventOpen(&leader_attr, /*pid=*/0, /*cpu=*/-1,
                             /*group_fd=*/-1, /*flags=*/0);
  if (leader_fd_ < 0) {
    const int err = errno;
    unavailable_reason_ = std::string("perf_event_open failed: ") +
                          std::strerror(err) +
                          (err == EACCES || err == EPERM
                               ? " (check kernel.perf_event_paranoid or "
                                 "container seccomp policy)"
                               : "");
    return;
  }
  fds_.push_back(leader_fd_);
  slot_[0] = 0;
  int next_slot = 1;
  for (int i = 1; i < 5; ++i) {
    perf_event_attr attr = MakeCountingAttr(kConfigs[i], /*leader=*/false);
    const int fd = PerfEventOpen(&attr, /*pid=*/0, /*cpu=*/-1,
                                 /*group_fd=*/leader_fd_, /*flags=*/0);
    if (fd < 0) continue;  // PMU lacks this event; its value stays zero
    fds_.push_back(fd);
    slot_[i] = next_slot++;
  }
}

HwCounterGroup::~HwCounterGroup() {
  for (int fd : fds_) close(fd);
}

Status HwCounterGroup::Start() {
  if (!available()) return Status::OK();
  if (ioctl(leader_fd_, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP) != 0 ||
      ioctl(leader_fd_, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP) != 0) {
    return Status::Internal(std::string("perf counter group ioctl failed: ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

void HwCounterGroup::Stop() {
  if (!available()) return;
  ioctl(leader_fd_, PERF_EVENT_IOC_DISABLE, PERF_IOC_FLAG_GROUP);
}

HwCounterValues HwCounterGroup::Read() const {
  HwCounterValues values;
  if (!available()) return values;
  // PERF_FORMAT_GROUP layout: { nr, time_enabled, time_running, value[nr] }.
  uint64_t buffer[3 + 5] = {0};
  const ssize_t want = static_cast<ssize_t>((3 + fds_.size()) * sizeof(uint64_t));
  if (read(leader_fd_, buffer, sizeof(buffer)) < want) return values;
  const uint64_t nr = buffer[0];
  values.time_enabled_ns = static_cast<int64_t>(buffer[1]);
  values.time_running_ns = static_cast<int64_t>(buffer[2]);
  int64_t* fields[5] = {&values.cycles, &values.instructions,
                        &values.cache_references, &values.cache_misses,
                        &values.branch_misses};
  for (int i = 0; i < 5; ++i) {
    if (slot_[i] < 0 || static_cast<uint64_t>(slot_[i]) >= nr) continue;
    *fields[i] = static_cast<int64_t>(buffer[3 + slot_[i]]);
  }
  return values;
}

namespace {

// ---------------------------------------------------------------------------
// Signal plumbing. The handler reads the active profiler through one atomic
// pointer; Stop() clears the pointer and waits for in-flight handlers, and
// the SIGPROF disposition is installed once and left in place for the
// process lifetime (re-raising the default disposition would terminate the
// process if a queued SIGPROF lands after a restore).
// ---------------------------------------------------------------------------

std::atomic<SamplingProfiler*> g_active_profiler{nullptr};

}  // namespace

struct ProfilerTimer {
  timer_t id;
};

struct ProfilerSignalAccess {
  static void HandleSignal(SamplingProfiler* profiler) {
    // Everything below is async-signal-safe: atomics, array writes, and
    // backtrace() (whose libgcc unwinder state is pre-warmed in Start()).
    profiler->in_flight_.fetch_add(1, std::memory_order_acq_rel);
    if (g_active_profiler.load(std::memory_order_acquire) == profiler) {
      const size_t slot =
          profiler->next_sample_.fetch_add(1, std::memory_order_relaxed);
      if (slot < profiler->samples_.size()) {
        SamplingProfiler::RawSample& sample = profiler->samples_[slot];
        sample.depth = backtrace(sample.frames, kMaxStackFrames);
        // The thread's journal label, copied now: the thread may be gone
        // (and its label slot reused) by the time Stop() folds the stacks.
        const char* label = Journal::ThreadLabel();
        size_t n = 0;
        while (n + 1 < sizeof(sample.label) && label[n] != '\0') {
          sample.label[n] = label[n];
          ++n;
        }
        sample.label[n] = '\0';
      } else {
        profiler->next_sample_.store(profiler->samples_.size(),
                                     std::memory_order_relaxed);
        profiler->dropped_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    profiler->in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  }
};

namespace {

void ProfilerSignalHandler(int /*signo*/, siginfo_t* /*info*/,
                           void* /*context*/) {
  const int saved_errno = errno;
  SamplingProfiler* profiler =
      g_active_profiler.load(std::memory_order_acquire);
  if (profiler != nullptr) ProfilerSignalAccess::HandleSignal(profiler);
  errno = saved_errno;
}

Status InstallSigprofHandlerOnce() {
  static const Status status = [] {
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_sigaction = &ProfilerSignalHandler;
    action.sa_flags = SA_RESTART | SA_SIGINFO;
    sigemptyset(&action.sa_mask);
    if (sigaction(SIGPROF, &action, nullptr) != 0) {
      return Status::Internal(std::string("sigaction(SIGPROF) failed: ") +
                              std::strerror(errno));
    }
    return Status::OK();
  }();
  return status;
}

std::string SymbolizeFrame(void* address) {
  Dl_info info;
  if (dladdr(address, &info) != 0 && info.dli_sname != nullptr) {
    int demangle_status = -1;
    char* demangled = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr,
                                          &demangle_status);
    std::string name =
        (demangle_status == 0 && demangled != nullptr) ? demangled
                                                       : info.dli_sname;
    std::free(demangled);
    // Folded format reserves ';' as the frame separator and ' ' before the
    // count; spaces also break some flamegraph tooling on template names.
    for (char& c : name) {
      if (c == ';' || c == ' ' || c == '\n') c = '_';
    }
    return name;
  }
  char buffer[2 + 2 * sizeof(void*) + 1];
  std::snprintf(buffer, sizeof(buffer), "0x%" PRIxPTR,
                reinterpret_cast<uintptr_t>(address));
  return buffer;
}

}  // namespace

SamplingProfiler::SamplingProfiler() : SamplingProfiler(Options()) {}

SamplingProfiler::SamplingProfiler(Options options)
    : options_(options), timer_(new ProfilerTimer{}) {
  if (options_.hz <= 0) options_.hz = SamplingProfiler::Options().hz;
  if (options_.max_samples == 0) options_.max_samples = 1;
}

SamplingProfiler::~SamplingProfiler() {
  (void)Stop();
  // Belt and braces: never let the handler observe a dead profiler.
  SamplingProfiler* self = this;
  g_active_profiler.compare_exchange_strong(self, nullptr);
  while (in_flight_.load(std::memory_order_acquire) != 0) {
  }
}

Status SamplingProfiler::Start() {
  if (running_) return Status::FailedPrecondition("profiler already running");
  SRP_RETURN_IF_ERROR(InstallSigprofHandlerOnce());

  samples_.resize(options_.max_samples);
  next_sample_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);

  // Warm up the unwinder: the first backtrace() call may dlopen/allocate,
  // which is not async-signal-safe. Doing it here keeps the handler clean.
  void* warmup[4];
  (void)backtrace(warmup, 4);

  SamplingProfiler* expected = nullptr;
  if (!g_active_profiler.compare_exchange_strong(expected, this)) {
    return Status::FailedPrecondition(
        "another sampling profiler is already active in this process");
  }

  sigevent event;
  std::memset(&event, 0, sizeof(event));
  event.sigev_notify = SIGEV_SIGNAL;
  event.sigev_signo = SIGPROF;
  // Process CPU time, not wall time: the kernel sends a process-directed
  // timer signal to a thread that is running when it fires, so busy pool
  // workers get sampled. On a wall clock it goes to any thread that does
  // not block it — in practice the main thread, even while it sleeps.
  if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &event, &timer_->id) != 0) {
    g_active_profiler.store(nullptr, std::memory_order_release);
    return Status::Internal(std::string("timer_create failed: ") +
                            std::strerror(errno));
  }
  const long interval_ns = 1000000000L / options_.hz;
  itimerspec spec;
  spec.it_interval.tv_sec = interval_ns / 1000000000L;
  spec.it_interval.tv_nsec = interval_ns % 1000000000L;
  spec.it_value = spec.it_interval;
  if (timer_settime(timer_->id, 0, &spec, nullptr) != 0) {
    const int err = errno;
    timer_delete(timer_->id);
    g_active_profiler.store(nullptr, std::memory_order_release);
    return Status::Internal(std::string("timer_settime failed: ") +
                            std::strerror(err));
  }
  timer_armed_ = true;
  running_ = true;
  return Status::OK();
}

Status SamplingProfiler::Stop() {
  if (!running_) return Status::OK();
  running_ = false;
  if (timer_armed_) {
    timer_delete(timer_->id);
    timer_armed_ = false;
  }
  g_active_profiler.store(nullptr, std::memory_order_release);
  // A SIGPROF queued before timer_delete may still be in delivery; wait for
  // the handler to retire before callers aggregate the sample buffer.
  while (in_flight_.load(std::memory_order_acquire) != 0) {
  }
  return Status::OK();
}

size_t SamplingProfiler::CollectedSamples() const {
  const size_t next = next_sample_.load(std::memory_order_acquire);
  return next < samples_.size() ? next : samples_.size();
}

size_t SamplingProfiler::DroppedSamples() const {
  return dropped_.load(std::memory_order_acquire);
}

std::vector<std::string> SamplingProfiler::FoldedStacks() const {
  const size_t count = CollectedSamples();
  // Aggregate identical raw stacks first so each unique frame chain is
  // symbolized once.
  std::map<std::string, int64_t> folded;
  std::map<void*, std::string> symbol_cache;
  for (size_t i = 0; i < count; ++i) {
    const RawSample& sample = samples_[i];
    std::string line = sample.label[0] != '\0' ? sample.label : "main";
    // frames[0] is the handler and frames[1] the kernel signal trampoline;
    // the interrupted program stack starts at frames[2]. Folded output is
    // root-first, so walk from the outermost frame inward.
    const int first_real = sample.depth > 2 ? 2 : 0;
    for (int f = sample.depth - 1; f >= first_real; --f) {
      auto [it, inserted] = symbol_cache.try_emplace(sample.frames[f]);
      if (inserted) it->second = SymbolizeFrame(sample.frames[f]);
      line += ';';
      line += it->second;
    }
    ++folded[line];
  }
  std::vector<std::string> lines;
  lines.reserve(folded.size());
  for (const auto& [stack, samples] : folded) {
    lines.push_back(stack + ' ' + std::to_string(samples));
  }
  return lines;
}

Status SamplingProfiler::WriteFolded(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IOError("cannot open profile output file: " + path);
  }
  const std::vector<std::string> lines = FoldedStacks();
  if (lines.empty()) {
    std::fputs("no_samples 1\n", file);
  } else {
    for (const std::string& line : lines) {
      std::fputs(line.c_str(), file);
      std::fputc('\n', file);
    }
  }
  if (std::fclose(file) != 0) {
    return Status::IOError("error writing profile output file: " + path);
  }
  return Status::OK();
}

#else  // !SRP_PROFILER_SUPPORTED

HwCounterGroup::HwCounterGroup()
    : unavailable_reason_("hardware counters not supported on this platform") {
}

HwCounterGroup::~HwCounterGroup() = default;

Status HwCounterGroup::Start() { return Status::OK(); }

void HwCounterGroup::Stop() {}

HwCounterValues HwCounterGroup::Read() const { return HwCounterValues(); }

struct ProfilerTimer {};

SamplingProfiler::SamplingProfiler() : SamplingProfiler(Options()) {}

SamplingProfiler::SamplingProfiler(Options options) : options_(options) {}

SamplingProfiler::~SamplingProfiler() = default;

Status SamplingProfiler::Start() {
  return Status::Unimplemented(
      "sampling profiler not supported on this platform");
}

Status SamplingProfiler::Stop() { return Status::OK(); }

size_t SamplingProfiler::CollectedSamples() const { return 0; }

size_t SamplingProfiler::DroppedSamples() const { return 0; }

std::vector<std::string> SamplingProfiler::FoldedStacks() const { return {}; }

Status SamplingProfiler::WriteFolded(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IOError("cannot open profile output file: " + path);
  }
  std::fputs("no_samples 1\n", file);
  std::fclose(file);
  return Status::OK();
}

#endif  // SRP_PROFILER_SUPPORTED

}  // namespace obs
}  // namespace srp
