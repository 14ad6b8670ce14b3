// srp_top — terminal monitor for a live (or finished) telemetry stream.
//
// Reads the JSON-lines stream written by `srp_repartition --telemetry-out`
// (or any TelemetrySampler stream sink) and renders a compact panel: journal
// phase, progress bar with ETA, iteration/accept rates, an IFL sparkline
// against the acceptance threshold θ, the stop reason of a finished run,
// thread-pool utilization, and memory. `srp_top --help` lists the modes
// (TopFlags below). Following waits for the file to appear, so it can be
// started before the run; once works on the stream of a crashed or killed
// run, which is the postmortem use case.
//
// Exit codes: 0 ok, 1 stream unreadable / no parsable samples, 2 bad usage.

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <deque>
#include <string>
#include <vector>

#include <unistd.h>

#include "util/flags.h"
#include "util/json.h"
#include "util/status.h"

namespace srp {
namespace {

/// The subset of one telemetry stream line srp_top renders. Every field is
/// optional in the input (lines are self-contained but additive across
/// versions); missing fields keep their zero defaults.
struct TopSample {
  uint64_t index = 0;
  int64_t ts_ns = 0;
  bool final_sample = false;

  std::string phase;
  uint64_t journal_seq = 0;

  bool active = false;
  std::string driver;
  double theta = 0.0;
  uint64_t work_total = 0;
  uint64_t work_done = 0;
  uint64_t candidates = 0;
  uint64_t iterations = 0;
  uint64_t groups = 0;
  double ifl = 0.0;
  double elapsed_seconds = 0.0;
  double iterations_per_second = 0.0;
  double accept_rate = 0.0;
  double fraction_done = 0.0;
  double eta_seconds = -1.0;
  std::string stop_reason;  ///< "" while the run is going (stream v2)

  bool pool_valid = false;
  uint64_t pool_size = 0;
  int64_t pool_busy_ns = 0;
  int64_t pool_tasks = 0;

  int64_t rss_bytes = 0;
  int64_t alloc_peak_bytes = 0;
};

double NumAt(const JsonValue& doc, const char* path, double fallback = 0.0) {
  const JsonValue* v = doc.FindPath(path);
  return v != nullptr && v->is_number() ? v->number_value() : fallback;
}

std::string StrAt(const JsonValue& doc, const char* path) {
  const JsonValue* v = doc.FindPath(path);
  return v != nullptr && v->is_string() ? v->string_value() : std::string();
}

bool ParseSampleLine(const std::string& line, TopSample* out) {
  auto doc = JsonValue::Parse(line);
  if (!doc.ok() || !doc->is_object()) return false;
  const JsonValue* version = doc->Find("v");
  if (version == nullptr || !version->is_number()) return false;

  TopSample s;
  s.index = static_cast<uint64_t>(NumAt(*doc, "i"));
  s.ts_ns = static_cast<int64_t>(NumAt(*doc, "ts_ns"));
  const JsonValue* final_flag = doc->Find("final");
  s.final_sample = final_flag != nullptr && final_flag->bool_value();
  s.phase = StrAt(*doc, "journal.phase");
  s.journal_seq = static_cast<uint64_t>(NumAt(*doc, "journal.seq"));

  const JsonValue* active = doc->FindPath("progress.active");
  s.active = active != nullptr && active->bool_value();
  s.driver = StrAt(*doc, "progress.driver");
  s.theta = NumAt(*doc, "progress.theta");
  s.work_total = static_cast<uint64_t>(NumAt(*doc, "progress.work_total"));
  s.work_done = static_cast<uint64_t>(NumAt(*doc, "progress.work_done"));
  s.candidates = static_cast<uint64_t>(NumAt(*doc, "progress.candidates"));
  s.iterations = static_cast<uint64_t>(NumAt(*doc, "progress.iterations"));
  s.groups = static_cast<uint64_t>(NumAt(*doc, "progress.groups"));
  s.ifl = NumAt(*doc, "progress.ifl");
  s.elapsed_seconds = NumAt(*doc, "progress.elapsed_seconds");
  s.iterations_per_second = NumAt(*doc, "progress.iterations_per_second");
  s.accept_rate = NumAt(*doc, "progress.accept_rate");
  s.fraction_done = NumAt(*doc, "progress.fraction_done");
  s.eta_seconds = NumAt(*doc, "progress.eta_seconds", -1.0);
  s.stop_reason = StrAt(*doc, "progress.stop_reason");

  const JsonValue* pool = doc->Find("pool");
  if (pool != nullptr && pool->is_object()) {
    s.pool_valid = true;
    s.pool_size = static_cast<uint64_t>(NumAt(*doc, "pool.pool_size"));
    s.pool_busy_ns = static_cast<int64_t>(NumAt(*doc, "pool.busy_ns"));
    s.pool_tasks = static_cast<int64_t>(NumAt(*doc, "pool.tasks_executed"));
  }
  s.rss_bytes = static_cast<int64_t>(NumAt(*doc, "mem.rss_bytes"));
  s.alloc_peak_bytes =
      static_cast<int64_t>(NumAt(*doc, "mem.alloc_peak_bytes"));
  *out = s;
  return true;
}

std::string HumanBytes(double bytes) {
  char buf[32];
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 4) {
    bytes /= 1024.0;
    ++u;
  }
  std::snprintf(buf, sizeof(buf), "%.1f%s", bytes, units[u]);
  return buf;
}

std::string HumanDuration(double seconds) {
  char buf[32];
  if (seconds < 0.0) return "--";
  if (seconds < 60.0) {
    std::snprintf(buf, sizeof(buf), "%.1fs", seconds);
  } else if (seconds < 3600.0) {
    std::snprintf(buf, sizeof(buf), "%dm%02ds",
                  static_cast<int>(seconds) / 60,
                  static_cast<int>(seconds) % 60);
  } else {
    std::snprintf(buf, sizeof(buf), "%dh%02dm",
                  static_cast<int>(seconds) / 3600,
                  (static_cast<int>(seconds) % 3600) / 60);
  }
  return buf;
}

std::string ProgressBar(double fraction, int width) {
  fraction = std::fmin(1.0, std::fmax(0.0, fraction));
  const int filled = static_cast<int>(std::lround(fraction * width));
  std::string bar = "[";
  for (int i = 0; i < width; ++i) bar += i < filled ? '#' : '.';
  bar += ']';
  return bar;
}

/// Unicode block sparkline of the recent IFL history, scaled so the θ
/// threshold sits at the 6/8 level — a series hugging the top is about to
/// terminate the run.
std::string Sparkline(const std::deque<double>& history, double theta) {
  static const char* kBlocks[] = {"\xe2\x96\x81", "\xe2\x96\x82",
                                  "\xe2\x96\x83", "\xe2\x96\x84",
                                  "\xe2\x96\x85", "\xe2\x96\x86",
                                  "\xe2\x96\x87", "\xe2\x96\x88"};
  const double scale = theta > 0.0 ? theta / 0.75 : 0.0;
  std::string out;
  for (double v : history) {
    int level = 0;
    if (scale > 0.0) {
      level = static_cast<int>(std::lround(v / scale * 7.0));
    } else if (v > 0.0) {
      level = 7;
    }
    level = std::max(0, std::min(7, level));
    out += kBlocks[level];
  }
  return out;
}

struct RenderState {
  std::deque<double> ifl_history;
  bool have_prev = false;
  TopSample prev;
};

void Render(const TopSample& s, RenderState* state, bool clear_screen,
            std::FILE* out) {
  // Pool utilization from busy-time deltas between consecutive samples:
  // workers-busy nanoseconds accumulated / wall nanoseconds available.
  double pool_util = -1.0;
  if (s.pool_valid && state->have_prev && state->prev.pool_valid &&
      s.ts_ns > state->prev.ts_ns && s.pool_size > 0) {
    const double wall =
        static_cast<double>(s.ts_ns - state->prev.ts_ns) *
        static_cast<double>(s.pool_size);
    const double busy =
        static_cast<double>(s.pool_busy_ns - state->prev.pool_busy_ns);
    pool_util = std::fmin(1.0, std::fmax(0.0, busy / wall));
  }
  if (s.ifl > 0.0) {
    state->ifl_history.push_back(s.ifl);
    while (state->ifl_history.size() > 40) state->ifl_history.pop_front();
  }

  if (clear_screen) std::fprintf(out, "\x1b[H\x1b[2J");
  std::fprintf(out, "srp_top — sample %llu%s  phase: %s  journal seq %llu\n",
               static_cast<unsigned long long>(s.index),
               s.final_sample ? " (final)" : "",
               s.phase.empty() ? "-" : s.phase.c_str(),
               static_cast<unsigned long long>(s.journal_seq));
  if (s.active || s.iterations > 0) {
    std::fprintf(out, "run: %-14s θ=%.3g  elapsed %s  eta %s\n",
                 s.driver.empty() ? "-" : s.driver.c_str(), s.theta,
                 HumanDuration(s.elapsed_seconds).c_str(),
                 HumanDuration(s.eta_seconds).c_str());
    std::fprintf(out, "%s %5.1f%%  (%llu/%llu units)\n",
                 ProgressBar(s.fraction_done, 40).c_str(),
                 100.0 * s.fraction_done,
                 static_cast<unsigned long long>(s.work_done),
                 static_cast<unsigned long long>(s.work_total));
    std::fprintf(out,
                 "iters %llu (%.1f/s)  accept %5.1f%%  groups %llu  "
                 "candidates %llu\n",
                 static_cast<unsigned long long>(s.iterations),
                 s.iterations_per_second, 100.0 * s.accept_rate,
                 static_cast<unsigned long long>(s.groups),
                 static_cast<unsigned long long>(s.candidates));
    std::fprintf(out, "ifl %.5f / θ %.5f  %s\n", s.ifl, s.theta,
                 Sparkline(state->ifl_history, s.theta).c_str());
  } else {
    std::fprintf(out, "run: idle (no active progress scope)\n");
  }
  if (s.final_sample && !s.stop_reason.empty()) {
    std::fprintf(out, "stopped: %s\n", s.stop_reason.c_str());
  }
  if (s.pool_valid) {
    std::fprintf(out, "pool: %llu worker(s)  util ",
                 static_cast<unsigned long long>(s.pool_size));
    if (pool_util >= 0.0) {
      std::fprintf(out, "%5.1f%%", 100.0 * pool_util);
    } else {
      std::fprintf(out, "    --");
    }
    std::fprintf(out, "  tasks %lld\n", static_cast<long long>(s.pool_tasks));
  }
  std::fprintf(out, "mem: rss %s  alloc peak %s\n",
               HumanBytes(static_cast<double>(s.rss_bytes)).c_str(),
               HumanBytes(static_cast<double>(s.alloc_peak_bytes)).c_str());
  std::fflush(out);

  state->have_prev = true;
  state->prev = s;
}

void SleepMs(double ms) {
  if (ms <= 0.0) return;
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(ms / 1000.0);
  ts.tv_nsec = static_cast<long>(std::fmod(ms, 1000.0) * 1e6);
  while (nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

/// Reads all complete lines currently available past `*offset`, advancing
/// the offset to just after the last complete line (a partially written
/// trailing line is left for the next poll).
std::vector<std::string> ReadNewLines(const std::string& path,
                                      long* offset) {
  std::vector<std::string> lines;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return lines;
  if (std::fseek(f, *offset, SEEK_SET) != 0) {
    std::fclose(f);
    return lines;
  }
  std::string pending;
  char buffer[1 << 14];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    pending.append(buffer, n);
  }
  std::fclose(f);
  size_t consumed = 0;
  size_t start = 0;
  for (size_t i = 0; i < pending.size(); ++i) {
    if (pending[i] == '\n') {
      if (i > start) lines.emplace_back(pending.substr(start, i - start));
      start = i + 1;
      consumed = start;
    }
  }
  *offset += static_cast<long>(consumed);
  return lines;
}

int RunOnce(const std::string& path) {
  long offset = 0;
  const std::vector<std::string> lines = ReadNewLines(path, &offset);
  if (lines.empty()) {
    std::fprintf(stderr, "srp_top: no samples in %s\n", path.c_str());
    return 1;
  }
  // Replay the history through the render state so the sparkline and pool
  // utilization reflect the whole recording, then show the newest panel.
  RenderState state;
  TopSample last;
  bool have_any = false;
  size_t unparsed = 0;
  for (const std::string& line : lines) {
    TopSample s;
    if (!ParseSampleLine(line, &s)) {
      ++unparsed;
      continue;
    }
    if (have_any) {
      // Feed the superseded sample into the history without rendering it;
      // Render() pushes the newest sample itself.
      if (last.ifl > 0.0) {
        state.ifl_history.push_back(last.ifl);
        while (state.ifl_history.size() > 40) state.ifl_history.pop_front();
      }
      state.have_prev = true;
      state.prev = last;
    }
    last = s;
    have_any = true;
  }
  if (!have_any) {
    std::fprintf(stderr, "srp_top: no parsable samples in %s\n",
                 path.c_str());
    return 1;
  }
  Render(last, &state, /*clear_screen=*/false, stdout);
  if (unparsed > 0) {
    std::fprintf(stdout, "(%zu unparsable line(s) skipped)\n", unparsed);
  }
  if (!last.final_sample) {
    std::fprintf(stdout,
                 "stream has no final sample — producer still running or "
                 "killed mid-run\n");
  }
  return 0;
}

int RunReplay(const std::string& path) {
  long offset = 0;
  const std::vector<std::string> lines = ReadNewLines(path, &offset);
  RenderState state;
  const bool tty = isatty(fileno(stdout)) != 0;
  bool have_any = false;
  int64_t prev_ts = 0;
  for (const std::string& line : lines) {
    TopSample s;
    if (!ParseSampleLine(line, &s)) continue;
    if (have_any && s.ts_ns > prev_ts) {
      SleepMs(std::fmin(250.0, static_cast<double>(s.ts_ns - prev_ts) / 1e6));
    }
    Render(s, &state, /*clear_screen=*/tty, stdout);
    if (!tty) std::fprintf(stdout, "\n");
    prev_ts = s.ts_ns;
    have_any = true;
  }
  if (!have_any) {
    std::fprintf(stderr, "srp_top: no parsable samples in %s\n",
                 path.c_str());
    return 1;
  }
  return 0;
}

int RunFollow(const std::string& path, double poll_ms) {
  RenderState state;
  const bool tty = isatty(fileno(stdout)) != 0;
  long offset = 0;
  bool printed_waiting = false;
  while (true) {
    const std::vector<std::string> lines = ReadNewLines(path, &offset);
    bool saw_final = false;
    for (const std::string& line : lines) {
      TopSample s;
      if (!ParseSampleLine(line, &s)) continue;
      Render(s, &state, /*clear_screen=*/tty, stdout);
      if (!tty) std::fprintf(stdout, "\n");
      if (s.final_sample) saw_final = true;
    }
    if (saw_final) return 0;
    if (lines.empty() && !state.have_prev && !printed_waiting) {
      std::fprintf(stderr, "srp_top: waiting for samples in %s...\n",
                   path.c_str());
      printed_waiting = true;
    }
    SleepMs(poll_ms);
  }
}

struct TopOptions {
  bool follow = false;
  bool once = false;
  bool replay = false;
  double interval_ms = 100.0;
};

constexpr const char* kSynopsis = "srp_top [flag...] STREAM.jsonl";

/// The one declaration of every flag: parsing, bounds and usage.
std::vector<Flag> TopFlags(TopOptions* o) {
  return {
      BoolFlag("follow", &o->follow,
               "tail the stream live until its final sample (the default)"),
      BoolFlag("once", &o->once,
               "render the newest sample and exit, also for killed runs"),
      BoolFlag("replay", &o->replay,
               "play the recorded stream back, gaps capped at 250 ms"),
      MillisFlag("interval-ms", &o->interval_ms, "follow-mode poll period"),
  };
}

int Run(int argc, char** argv) {
  TopOptions options;
  std::vector<std::string> paths;
  const std::vector<Flag> flags = TopFlags(&options);
  if (const std::optional<int> exit_code =
          ParseToolFlags(argc, argv, kSynopsis, flags, &paths)) {
    return *exit_code;
  }
  if (options.follow + options.once + options.replay > 1) {
    return FlagUsageError(kSynopsis, flags, "give at most one mode flag");
  }
  if (paths.size() != 1) {
    return FlagUsageError(kSynopsis, flags, "give exactly one STREAM path");
  }
  if (options.once) return RunOnce(paths[0]);
  if (options.replay) return RunReplay(paths[0]);
  return RunFollow(paths[0], options.interval_ms);
}

}  // namespace
}  // namespace srp

int main(int argc, char** argv) { return srp::Run(argc, argv); }
