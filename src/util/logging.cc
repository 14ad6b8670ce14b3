#include "util/logging.h"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>

#include "obs/journal.h"
#include "util/json.h"
#include "util/string_util.h"

namespace srp {
namespace {

std::atomic<int> g_min_level{static_cast<int>(LogLevel::kInfo)};
std::atomic<int> g_rate_limit{0};

const char* UpperLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

/// Default sink: one fwrite per record (newline appended first) so
/// concurrent records land on stderr without interleaving.
class StderrLogSink : public LogSink {
 public:
  void Write(const LogRecord& record) override {
    std::string line = FormatLogRecordText(record);
    line.push_back('\n');
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
  }
};

StderrLogSink& DefaultSink() {
  static StderrLogSink* sink = new StderrLogSink();  // leaked: outlives exit
  return *sink;
}

/// File sink used by InstallLogFile / SRP_LOG_OUT. Each record is one
/// fwrite under the mutex, so lines never interleave.
class FileLogSink : public LogSink {
 public:
  FileLogSink(std::FILE* file, LogFormat format)
      : file_(file), format_(format) {}
  ~FileLogSink() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  void Write(const LogRecord& record) override {
    std::string line = format_ == LogFormat::kJson
                           ? FormatLogRecordJson(record)
                           : FormatLogRecordText(record);
    line.push_back('\n');
    std::lock_guard<std::mutex> lock(mu_);
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fflush(file_);
  }

 private:
  std::FILE* file_;
  LogFormat format_;
  std::mutex mu_;
};

std::atomic<LogSink*> g_sink{nullptr};  // nullptr = default stderr sink

LogSink& ActiveSink() {
  LogSink* sink = g_sink.load(std::memory_order_acquire);
  return sink != nullptr ? *sink : DefaultSink();
}

/// Per-module flood-control state, guarded by g_rate_mu. One-second
/// windows; suppressed counts are surfaced as a synthetic warning when the
/// window rolls over.
struct ModuleWindow {
  int64_t window_start_ns = 0;
  int count = 0;
  int64_t suppressed = 0;
};

std::mutex g_rate_mu;
std::map<std::string, ModuleWindow>& RateTable() {
  static auto* table = new std::map<std::string, ModuleWindow>();
  return *table;
}

/// Returns true when the record must be dropped. When the record opens a
/// new window after suppressions, `*resumed_suppressed` reports how many
/// records were dropped in the closed window (0 otherwise).
bool RateLimited(const LogRecord& record, int64_t* resumed_suppressed) {
  *resumed_suppressed = 0;
  const int limit = g_rate_limit.load(std::memory_order_relaxed);
  if (limit <= 0 || record.level >= LogLevel::kWarning) return false;
  std::lock_guard<std::mutex> lock(g_rate_mu);
  ModuleWindow& window = RateTable()[record.module];
  if (record.ts_ns - window.window_start_ns >= 1000000000) {
    *resumed_suppressed = window.suppressed;
    window.window_start_ns = record.ts_ns;
    window.count = 0;
    window.suppressed = 0;
  }
  if (window.count < limit) {
    ++window.count;
    return false;
  }
  ++window.suppressed;
  return true;
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "trace";
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarning:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "?";
}

bool ParseLogLevel(const std::string& text, LogLevel* level) {
  std::string lower;
  lower.reserve(text.size());
  for (char c : text) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "trace") {
    *level = LogLevel::kTrace;
  } else if (lower == "debug") {
    *level = LogLevel::kDebug;
  } else if (lower == "info") {
    *level = LogLevel::kInfo;
  } else if (lower == "warn" || lower == "warning") {
    *level = LogLevel::kWarning;
  } else if (lower == "error") {
    *level = LogLevel::kError;
  } else {
    return false;
  }
  return true;
}

void SetLogLevel(LogLevel level) {
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_min_level.load(std::memory_order_relaxed));
}

std::string FormatLogRecordText(const LogRecord& record) {
  std::ostringstream out;
  out << "[" << UpperLevelName(record.level) << " " << record.module << " "
      << record.file << ":" << record.line << "] " << record.message;
  return out.str();
}

std::string FormatLogRecordJson(const LogRecord& record) {
  std::string out = "{\"ts_ns\":";
  out += std::to_string(record.ts_ns);
  out += ",\"level\":\"";
  out += LogLevelName(record.level);
  out += "\",\"tid\":";
  out += std::to_string(record.tid);
  out += ",\"thread\":\"";
  AppendJsonEscaped(&out, record.thread_label);
  out += "\",\"module\":\"";
  AppendJsonEscaped(&out, record.module.c_str());
  out += "\",\"file\":\"";
  AppendJsonEscaped(&out, record.file);
  out += "\",\"line\":";
  out += std::to_string(record.line);
  out += ",\"msg\":\"";
  AppendJsonEscaped(&out, record.message.c_str());
  out += "\"}";
  return out;
}

std::string LogModuleFromFile(const char* file) {
  const std::string path = file != nullptr ? file : "";
  // "src/<component>/..." → "<component>" (also matches absolute paths).
  size_t pos = path.rfind("src/");
  if (pos != std::string::npos &&
      (pos == 0 || path[pos - 1] == '/')) {
    const size_t begin = pos + 4;
    const size_t slash = path.find('/', begin);
    if (slash != std::string::npos && slash > begin) {
      return path.substr(begin, slash - begin);
    }
  }
  for (const char* root : {"tests", "bench", "tools", "examples"}) {
    const std::string needle = std::string(root) + "/";
    pos = path.rfind(needle);
    if (pos != std::string::npos && (pos == 0 || path[pos - 1] == '/')) {
      return root;
    }
  }
  const size_t slash = path.rfind('/');
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const size_t dot = base.rfind('.');
  if (dot != std::string::npos && dot > 0) base.resize(dot);
  return base.empty() ? "unknown" : base;
}

LogSink* SetLogSink(LogSink* sink) {
  return g_sink.exchange(sink, std::memory_order_acq_rel);
}

Status InstallLogFile(const std::string& path) {
  LogFormat format = LogFormat::kText;
  auto ends_with = [&path](const char* suffix) {
    const size_t n = std::string(suffix).size();
    return path.size() >= n && path.compare(path.size() - n, n, suffix) == 0;
  };
  if (ends_with(".json") || ends_with(".jsonl")) format = LogFormat::kJson;
  return InstallLogFile(path, format);
}

Status InstallLogFile(const std::string& path, LogFormat format) {
  if (path.empty() || path == "-") {
    SetLogSink(nullptr);
    return Status::OK();
  }
  std::FILE* file = std::fopen(path.c_str(), "a");
  if (file == nullptr) {
    return Status::IOError("cannot open log file: " + path);
  }
  // Never freed: a replaced sink may still be mid-Write on another thread.
  // This process-lifetime list (itself never destroyed) keeps every
  // installed sink reachable, so leak checkers do not report the replaced
  // ones; the handful of sinks a process installs is bounded.
  struct InstalledSinks {
    std::mutex mu;
    std::vector<std::unique_ptr<FileLogSink>> sinks;
  };
  static InstalledSinks* installed = new InstalledSinks();
  FileLogSink* sink = nullptr;
  {
    std::lock_guard<std::mutex> lock(installed->mu);
    installed->sinks.push_back(std::make_unique<FileLogSink>(file, format));
    sink = installed->sinks.back().get();
  }
  SetLogSink(sink);
  return Status::OK();
}

void SetLogRateLimit(int max_per_second) {
  g_rate_limit.store(max_per_second, std::memory_order_relaxed);
  if (max_per_second <= 0) {
    std::lock_guard<std::mutex> lock(g_rate_mu);
    RateTable().clear();
  }
}

int GetLogRateLimit() {
  return g_rate_limit.load(std::memory_order_relaxed);
}

void ConfigureLoggingFromEnv() {
  if (const char* level_text = std::getenv("SRP_LOG_LEVEL")) {
    LogLevel level;
    if (ParseLogLevel(level_text, &level)) {
      SetLogLevel(level);
    } else {
      SRP_LOG(Warning) << "ignoring invalid SRP_LOG_LEVEL '" << level_text
                       << "'";
    }
  }
  if (const char* out = std::getenv("SRP_LOG_OUT")) {
    const Status status = InstallLogFile(out);
    if (!status.ok()) {
      SRP_LOG(Warning) << "ignoring SRP_LOG_OUT: " << status.message();
    }
  }
  if (const char* rate_text = std::getenv("SRP_LOG_RATE_LIMIT")) {
    const Result<uint64_t> rate = ParseUint64(rate_text);
    if (rate.ok() && *rate > 0 &&
        *rate <= static_cast<uint64_t>(std::numeric_limits<int>::max())) {
      SetLogRateLimit(static_cast<int>(*rate));
    } else {
      SRP_LOG(Warning) << "ignoring invalid SRP_LOG_RATE_LIMIT '" << rate_text
                       << "'";
    }
  }
}

void CaptureLogSink::Write(const LogRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(Record{record.level, FormatLogRecordText(record),
                            record.module});
  ++write_calls_;
}

std::vector<CaptureLogSink::Record> CaptureLogSink::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

size_t CaptureLogSink::write_calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_calls_;
}

void CaptureLogSink::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  write_calls_ = 0;
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line, bool fatal)
    : level_(level), file_(file), line_(line), fatal_(fatal) {
  enabled_ =
      fatal || static_cast<int>(level) >=
                   g_min_level.load(std::memory_order_relaxed);
}

LogMessage::~LogMessage() {
  if (enabled_) {
    LogRecord record;
    record.level = level_;
    record.file = file_;
    record.line = line_;
    record.module = LogModuleFromFile(file_);
    record.ts_ns = obs::Journal::NowNanos();
    record.tid = obs::Journal::CurrentThreadId();
    record.thread_label = obs::Journal::ThreadLabel();
    record.message = stream_.str();

    if (fatal_) {
      // Leave the failure text in the flight recorder BEFORE any sink I/O:
      // the SIGABRT postmortem reads it even if the sink hangs or crashes.
      obs::Journal::SetCrashCause(record.message.c_str());
      obs::Journal::Append(obs::JournalEventKind::kCheckFail,
                           static_cast<int>(level_),
                           record.message.c_str());
    } else {
      obs::Journal::Append(obs::JournalEventKind::kLog,
                           static_cast<int>(level_), record.message.c_str());
      int64_t resumed_suppressed = 0;
      if (RateLimited(record, &resumed_suppressed)) return;
      if (resumed_suppressed > 0) {
        LogRecord note = record;
        note.level = LogLevel::kWarning;
        note.message = "rate limit: suppressed " +
                       std::to_string(resumed_suppressed) +
                       " records from module '" + record.module +
                       "' in the last window";
        ActiveSink().Write(note);
      }
    }
    ActiveSink().Write(record);
  }
  if (fatal_) std::abort();
}

}  // namespace internal
}  // namespace srp
