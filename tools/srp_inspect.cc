// Postmortem + checkpoint inspector (DESIGN.md §11, §13): pretty-prints,
// merges, validates, and re-exports the flight recorder's postmortem dumps,
// and summarizes/validates durable checkpoint files. `srp_inspect --help`
// lists the flags (InspectFlags below).
//
// Exit codes: 0 = everything valid, 2 = usage error or unreadable/invalid
// input, 1 = an output (e.g. --trace-out) could not be written.
//
// The Chrome trace export turns every journal event into an instant event on
// its thread's track, so a postmortem can be laid side by side with a
// --trace-out span trace from the same run (both use monotonic time).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fail/checkpoint.h"
#include "obs/flight_recorder.h"
#include "obs/run_report.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/status.h"

namespace srp {
namespace {

struct InspectOptions {
  bool validate_only = false;
  bool merge = false;
  bool checkpoint_mode = false;  ///< inputs are .srpckpt checkpoint files
  bool print_version = false;    ///< print provenance and exit 0
  std::string trace_out;
  std::vector<std::string> files;
  size_t tail = 20;  ///< journal events shown per summary
};

/// One journal event, re-parsed from a postmortem document.
struct ParsedEvent {
  uint64_t seq = 0;
  int64_t ts_ns = 0;
  uint32_t tid = 0;
  std::string thread_label;
  std::string kind;
  std::string text;
  std::string source;  ///< file the event came from (for --merge)
};

constexpr const char* kSynopsis = "srp_inspect [flag...] FILE...";

/// The one declaration of every flag: parsing, bounds and usage.
std::vector<Flag> InspectFlags(InspectOptions* o) {
  return {
      BoolFlag("validate", &o->validate_only,
               "check each file and print OK or the error, nothing else"),
      BoolFlag("merge", &o->merge,
               "print one seq-ordered timeline of all postmortems"),
      CountFlag("tail", &o->tail, 0, "journal events shown per summary"),
      StringFlag("trace-out", &o->trace_out, "FILE",
                 "write the postmortems' journal events as a Chrome trace"),
      BoolFlag("checkpoint", &o->checkpoint_mode,
               "the FILEs are .srpckpt checkpoints, not postmortems"),
      BoolFlag("version", &o->print_version,
               "print the build provenance and exit"),
  };
}

Result<JsonValue> LoadPostmortem(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream content;
  content << in.rdbuf();
  return JsonValue::Parse(content.str());
}

std::string FieldString(const JsonValue& doc, const char* dotted_path) {
  const JsonValue* value = doc.FindPath(dotted_path);
  return value != nullptr && value->is_string() ? value->string_value() : "";
}

double FieldNumber(const JsonValue& doc, const char* dotted_path) {
  const JsonValue* value = doc.FindPath(dotted_path);
  return value != nullptr ? value->number_value() : 0.0;
}

/// The journal events of a validated postmortem (ValidatePostmortemJson
/// vouches for every field read here but the thread label), seq-ordered.
std::vector<ParsedEvent> ExtractEvents(const JsonValue& doc,
                                       const std::string& source) {
  std::vector<ParsedEvent> events;
  for (const JsonValue& thread : doc.FindPath("journal.threads")->items()) {
    const JsonValue* label = thread.Find("label");
    for (const JsonValue& e : thread.Find("events")->items()) {
      ParsedEvent event;
      event.seq = static_cast<uint64_t>(e.Find("seq")->number_value());
      event.ts_ns = static_cast<int64_t>(e.Find("ts_ns")->number_value());
      event.tid = static_cast<uint32_t>(thread.Find("tid")->number_value());
      event.thread_label =
          label != nullptr && label->is_string() ? label->string_value() : "";
      event.kind = e.Find("kind")->string_value();
      event.text = e.Find("text")->string_value();
      event.source = source;
      events.push_back(std::move(event));
    }
  }
  std::sort(events.begin(), events.end(),
            [](const ParsedEvent& a, const ParsedEvent& b) {
              return a.seq < b.seq;
            });
  return events;
}

void PrintEvent(const ParsedEvent& event, int64_t epoch_ns, bool with_source) {
  const double rel_ms =
      static_cast<double>(event.ts_ns - epoch_ns) / 1e6;
  std::string thread = event.thread_label.empty()
                           ? "tid" + std::to_string(event.tid)
                           : event.thread_label;
  std::printf("  %6llu %+11.3fms %-12s %-10s %s",
              static_cast<unsigned long long>(event.seq), rel_ms,
              thread.c_str(), event.kind.c_str(), event.text.c_str());
  if (with_source) std::printf("  [%s]", event.source.c_str());
  std::printf("\n");
}

void PrintSummary(const std::string& path, const JsonValue& doc,
                  size_t tail) {
  std::printf("== %s\n", path.c_str());
  std::printf("  kind:       %s\n", FieldString(doc, "kind").c_str());
  std::printf("  cause:      %s\n", FieldString(doc, "cause").c_str());
  const std::string kind = FieldString(doc, "kind");
  if (kind == "interrupt") {
    std::printf("  interrupt:  %s\n",
                FieldString(doc, "interrupt.kind_name").c_str());
  } else if (kind == "stall") {
    std::printf("  stall:      no progress for %.0f ms (phase %s)\n",
                FieldNumber(doc, "stall.window_ms"),
                FieldString(doc, "stall.phase").c_str());
  } else {
    std::printf("  signal:     %s (%d), fault_addr %s\n",
                FieldString(doc, "signal.name").c_str(),
                static_cast<int>(FieldNumber(doc, "signal.number")),
                FieldString(doc, "signal.fault_addr").c_str());
  }
  const std::string crash_cause = FieldString(doc, "crash_cause");
  if (!crash_cause.empty()) {
    std::printf("  check:      %s\n", crash_cause.c_str());
  }
  std::printf("  thread:     tid %d%s%s\n",
              static_cast<int>(FieldNumber(doc, "thread.tid")),
              FieldString(doc, "thread.label").empty() ? "" : " ",
              FieldString(doc, "thread.label").c_str());
  std::printf("  phase:      %s\n", FieldString(doc, "phase").c_str());
  if (doc.Find("checkpoint") != nullptr) {
    std::printf("  checkpoint: generation %lld durable at dump time "
                "(resume candidate)\n",
                static_cast<long long>(
                    FieldNumber(doc, "checkpoint.generation")));
  }
  std::printf("  build:      %s %s (%s)\n",
              FieldString(doc, "provenance.git_sha").c_str(),
              FieldString(doc, "provenance.build_type").c_str(),
              FieldString(doc, "provenance.compiler").c_str());

  const JsonValue* backtrace = doc.Find("backtrace");  // validated: an array
  if (backtrace->size() > 0) {
    std::printf("  backtrace (%zu frames, top 5):\n", backtrace->size());
    for (size_t i = 0; i < std::min<size_t>(5, backtrace->size()); ++i) {
      std::printf("    #%zu %s\n", i, backtrace->at(i).string_value().c_str());
    }
  }

  const std::vector<ParsedEvent> events = ExtractEvents(doc, path);
  std::printf("  journal:    %llu events total, %llu retained",
              static_cast<unsigned long long>(
                  FieldNumber(doc, "journal.total_events")),
              static_cast<unsigned long long>(events.size()));
  const double dropped = FieldNumber(doc, "journal.dropped_thread_events");
  if (dropped > 0) std::printf(", %g dropped (thread arena full)", dropped);
  std::printf("\n");
  if (!events.empty()) {
    const size_t shown = std::min(tail, events.size());
    const int64_t last_ts = events.back().ts_ns;
    std::printf("  last %zu events (ms relative to the final event):\n",
                shown);
    for (size_t i = events.size() - shown; i < events.size(); ++i) {
      PrintEvent(events[i], last_ts, /*with_source=*/false);
    }
  }
}

/// Chrome trace export: one process per input file, one instant event per
/// journal event, timestamps relative to the file's earliest event.
Status WriteTrace(const std::string& path,
                  const std::vector<std::vector<ParsedEvent>>& per_file,
                  const std::vector<std::string>& files) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (size_t f = 0; f < per_file.size(); ++f) {
    const std::vector<ParsedEvent>& events = per_file[f];
    if (events.empty()) continue;
    int64_t epoch = events.front().ts_ns;
    for (const ParsedEvent& event : events) {
      epoch = std::min(epoch, event.ts_ns);
    }
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(f + 1) + ",\"args\":{\"name\":\"";
    AppendJsonEscaped(&out, files[f]);
    out += "\"}}";
    for (const ParsedEvent& event : events) {
      out += ",\n{\"name\":\"";
      AppendJsonEscaped(&out, event.kind + ": " + event.text);
      out += "\",\"cat\":\"journal\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
      char ts[32];
      std::snprintf(ts, sizeof(ts), "%.3f",
                    static_cast<double>(event.ts_ns - epoch) / 1e3);
      out += ts;
      out += ",\"pid\":" + std::to_string(f + 1) +
             ",\"tid\":" + std::to_string(event.tid) + ",\"args\":{\"seq\":" +
             std::to_string(event.seq) + "}}";
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";

  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return Status::IOError("cannot open " + path);
  const size_t written = std::fwrite(out.data(), 1, out.size(), file);
  const bool close_ok = std::fclose(file) == 0;
  if (written != out.size() || !close_ok) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

/// --checkpoint mode: per-file summary (or --validate one-liners). A file
/// failing magic/framing/CRC checks, or carrying structurally impossible
/// state, is reported and counts as invalid input (exit 2).
int RunCheckpointMode(const InspectOptions& options) {
  bool all_valid = true;
  for (const std::string& path : options.files) {
    Result<StoredCheckpoint> loaded = ReadCheckpointFile(path);
    if (!loaded.ok()) {
      if (options.validate_only) {
        std::printf("%s: %s\n", path.c_str(),
                    loaded.status().ToString().c_str());
      } else {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     loaded.status().ToString().c_str());
      }
      all_valid = false;
      continue;
    }
    const StoredCheckpoint& stored = *loaded;
    if (options.validate_only) {
      std::printf("%s: OK\n", path.c_str());
      continue;
    }
    const RepartitionCheckpoint& state = stored.state;
    std::printf("== %s\n", path.c_str());
    std::printf("  generation:       %llu\n",
                static_cast<unsigned long long>(state.generation));
    std::printf("  iterations:       %zu\n", state.iterations);
    std::printf("  partition:        %zux%zu cells -> %zu groups\n",
                state.partition.rows, state.partition.cols,
                state.partition.num_groups());
    std::printf("  information loss: %.6f\n", state.information_loss);
    std::printf("  last variation:   %.6f (pop threshold state %.6f)\n",
                state.final_min_adjacent_variation, state.previous_variation);
    std::printf("  grid fp:          %016llx\n",
                static_cast<unsigned long long>(stored.grid_fingerprint));
    std::printf("  options fp:       %016llx\n",
                static_cast<unsigned long long>(stored.options_fingerprint));
    std::printf("  sections:         CRC-verified (META GRPS CMAP FEAT GMET "
                "END)\n");
  }
  return all_valid ? 0 : 2;
}

int Run(int argc, char** argv) {
  InspectOptions options;
  const std::vector<Flag> flags = InspectFlags(&options);
  if (const std::optional<int> exit_code =
          ParseToolFlags(argc, argv, kSynopsis, flags, &options.files)) {
    return *exit_code;
  }
  if (!options.print_version && options.files.empty()) {
    return FlagUsageError(kSynopsis, flags, "no input FILE");
  }

  if (options.print_version) {
    const obs::RunReportProvenance provenance = obs::BuildProvenance();
    std::printf("srp_inspect %s (%s build, %s)\n", provenance.git_sha.c_str(),
                provenance.build_type.c_str(), provenance.compiler.c_str());
    return 0;
  }
  if (options.checkpoint_mode) return RunCheckpointMode(options);

  std::vector<JsonValue> docs;
  std::vector<std::string> valid_paths;
  std::vector<std::vector<ParsedEvent>> per_file_events;
  bool all_valid = true;
  for (const std::string& path : options.files) {
    Result<JsonValue> parsed = LoadPostmortem(path);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   parsed.status().ToString().c_str());
      all_valid = false;
      continue;
    }
    const Status valid = obs::ValidatePostmortemJson(*parsed);
    if (options.validate_only) {
      std::printf("%s: %s\n", path.c_str(),
                  valid.ok() ? "OK" : valid.ToString().c_str());
    } else if (!valid.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   valid.ToString().c_str());
    }
    if (!valid.ok()) {
      all_valid = false;
      continue;
    }
    per_file_events.push_back(ExtractEvents(*parsed, path));
    valid_paths.push_back(path);
    docs.push_back(std::move(*parsed));
  }

  if (!options.validate_only) {
    if (options.merge) {
      std::vector<ParsedEvent> merged;
      for (const auto& events : per_file_events) {
        merged.insert(merged.end(), events.begin(), events.end());
      }
      std::sort(merged.begin(), merged.end(),
                [](const ParsedEvent& a, const ParsedEvent& b) {
                  return a.seq < b.seq;
                });
      std::printf("== merged timeline: %zu events from %zu dumps\n",
                  merged.size(), docs.size());
      const int64_t epoch = merged.empty() ? 0 : merged.front().ts_ns;
      const bool with_source = docs.size() > 1;
      for (const ParsedEvent& event : merged) {
        PrintEvent(event, epoch, with_source);
      }
    } else {
      for (size_t i = 0; i < docs.size(); ++i) {
        PrintSummary(valid_paths[i], docs[i], options.tail);
      }
    }
  }

  if (!options.trace_out.empty() && !docs.empty()) {
    const Status status =
        WriteTrace(options.trace_out, per_file_events, valid_paths);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", options.trace_out.c_str());
  }

  // 2, not 1: unreadable or schema-invalid INPUT is the caller's problem
  // (same class as a usage error); 1 is reserved for failures producing
  // OUTPUT (the --trace-out branch above).
  return all_valid ? 0 : 2;
}

}  // namespace
}  // namespace srp

int main(int argc, char** argv) { return srp::Run(argc, argv); }
