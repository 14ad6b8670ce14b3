#include "util/flags.h"

#include <algorithm>
#include <utility>

#include "fail/cancellation.h"
#include "util/string_util.h"

namespace srp {
namespace {

std::string Num(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

/// A count or real flag: `parse` reads the value, which must lie in
/// [min, max].
template <typename T>
Flag NumberFlag(const char* name, const char* value_name, T* out, T min,
                T max, Result<T> (*parse)(std::string_view), std::string rule,
                std::string default_text, const char* help) {
  return {name, value_name, help, std::move(rule), std::move(default_text),
          [=](std::string_view value) {
            const Result<T> parsed = parse(value);
            // Negated, so that NaN fails too.
            if (!parsed.ok() || !(*parsed >= min && *parsed <= max)) {
              return false;
            }
            *out = *parsed;
            return true;
          }};
}

}  // namespace

Flag StringFlag(const char* name, std::string* out, const char* value_name,
                const char* help) {
  return {name, value_name, help, "", out->empty() ? "" : "\"" + *out + "\"",
          [out](std::string_view value) {
            *out = value;
            return true;
          }};
}

Flag BoolFlag(const char* name, bool* out, const char* help) {
  return {name, "", help, "", "", [out](std::string_view) {
            *out = true;
            return true;
          }};
}

Flag CountFlag(const char* name, uint64_t* out, uint64_t min,
               const char* help, uint64_t max) {
  return NumberFlag(name, "N", out, min, max, &ParseUint64,
                    max == std::numeric_limits<uint64_t>::max()
                        ? "an integer >= " + std::to_string(min)
                        : "an integer in [" + std::to_string(min) + ", " +
                              std::to_string(max) + "]",
                    *out == 0 ? "" : std::to_string(*out), help);
}

Flag RealFlag(const char* name, double* out, double min, const char* help,
              double max) {
  return NumberFlag(name, "X", out, min, max, &ParseDouble,
                    max == std::numeric_limits<double>::max()
                        ? "a finite number >= " + Num(min)
                        : "a number in [" + Num(min) + ", " + Num(max) + "]",
                    *out == 0.0 ? "" : Num(*out), help);
}

Flag MillisFlag(const char* name, double* out, const char* help) {
  constexpr double kMaxMillis = RunContext::kMaxDeadlineSeconds * 1e3;
  // No double lies between 0 and the smallest subnormal, so this [min, max]
  // is (0, max].
  return NumberFlag(name, "MS", out, std::numeric_limits<double>::denorm_min(),
                    kMaxMillis, &ParseDouble,
                    "milliseconds in (0, " + Num(kMaxMillis) + "]",
                    *out == 0.0 ? "" : Num(*out), help);
}

Result<FlagAction> ParseFlags(int argc, char** argv,
                              const std::vector<Flag>& flags,
                              std::vector<std::string>* positional) {
  std::vector<bool> seen(flags.size(), false);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      if (arg.starts_with("-") || positional == nullptr) {
        return Status::InvalidArgument("unexpected argument '" +
                                       std::string(arg) + "'");
      }
      positional->emplace_back(arg);
      continue;
    }
    const size_t eq = std::min(arg.find('='), arg.size());
    std::string name(arg.substr(2, eq - 2));
    std::replace(name.begin(), name.end(), '_', '-');
    const bool help = name == "help";
    const auto flag =
        std::find_if(flags.begin(), flags.end(),
                     [&](const Flag& f) { return name == f.name; });
    if (!help && flag == flags.end()) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    const bool takes_value = !help && *flag->value_name != '\0';
    if (!takes_value && eq < arg.size()) {
      return Status::InvalidArgument("--" + name + " takes no value");
    }
    if (help) return FlagAction::kHelp;
    if (seen[flag - flags.begin()]) {
      return Status::InvalidArgument("--" + name + " is given twice");
    }
    seen[flag - flags.begin()] = true;
    std::string_view value;
    if (eq < arg.size()) {
      value = arg.substr(eq + 1);
    } else if (takes_value && i + 1 == argc) {
      return Status::InvalidArgument("--" + name + " needs a value");
    } else if (takes_value) {
      value = argv[++i];
    }
    if (!flag->store(value)) {
      return Status::InvalidArgument("--" + name + " needs " + flag->rule +
                                     ", got '" + std::string(value) + "'");
    }
  }
  return FlagAction::kRun;
}

void PrintFlagUsage(std::FILE* out, std::string_view synopsis,
                    const std::vector<Flag>& flags) {
  std::vector<std::pair<std::string, std::string>> lines;
  for (const Flag& flag : flags) {
    std::string spelling = "--" + std::string(flag.name);
    if (*flag.value_name != '\0') {
      spelling += std::string(" ") + flag.value_name;
    }
    std::string help = flag.help;
    if (!flag.rule.empty()) help += "; " + flag.rule;
    if (!flag.default_text.empty()) {
      help += " (default " + flag.default_text + ")";
    }
    lines.emplace_back(std::move(spelling), std::move(help));
  }
  lines.emplace_back("--help", "print this text and exit");
  size_t width = 0;
  for (const auto& line : lines) width = std::max(width, line.first.size());
  std::fprintf(out, "usage: %.*s\n", static_cast<int>(synopsis.size()),
               synopsis.data());
  for (const auto& [spelling, help] : lines) {
    std::fprintf(out, "  %-*s  %s\n", static_cast<int>(width),
                 spelling.c_str(), help.c_str());
  }
  std::fprintf(out,
               "Each flag is given at most once, as --flag VALUE or "
               "--flag=VALUE; '_' may stand for '-'.\n");
}

int FlagUsageError(std::string_view synopsis, const std::vector<Flag>& flags,
                   std::string_view message) {
  PrintFlagUsage(stderr, synopsis, flags);
  std::fprintf(stderr, "%.*s\n", static_cast<int>(message.size()),
               message.data());
  return 2;
}

std::optional<int> ParseToolFlags(int argc, char** argv,
                                  std::string_view synopsis,
                                  const std::vector<Flag>& flags,
                                  std::vector<std::string>* positional) {
  const Result<FlagAction> action = ParseFlags(argc, argv, flags, positional);
  if (!action.ok()) {
    return FlagUsageError(synopsis, flags, action.status().message());
  }
  if (*action == FlagAction::kRun) return std::nullopt;
  PrintFlagUsage(stdout, synopsis, flags);
  return 0;
}

}  // namespace srp
