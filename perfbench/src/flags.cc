#include "flags.h"

#include <algorithm>
#include <charconv>
#include <set>

namespace perfbench {

using srp::Result;
using srp::Status;

namespace {

/// A whole decimal unsigned integer: no sign, no spaces, no trailing
/// characters, no overflow.
Result<uint64_t> ParseUnsigned(const std::string& text) {
  uint64_t value = 0;
  const char* begin = text.data();
  const char* end = text.data() + text.size();
  if (text.empty() || text[0] < '0' || text[0] > '9') {
    return Status::InvalidArgument("not an unsigned integer: '" + text + "'");
  }
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec == std::errc::result_out_of_range) {
    return Status::OutOfRange("integer out of range: '" + text + "'");
  }
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument("not an unsigned integer: '" + text + "'");
  }
  return value;
}

}  // namespace

Result<BenchFlags> ParseFlags(const std::vector<std::string>& args,
                              const std::vector<std::string>& known_workloads) {
  BenchFlags flags;
  std::set<std::string> seen;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected argument '" + arg + "'");
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const size_t eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
      has_value = true;
    }
    if (!seen.insert(name).second) {
      return Status::InvalidArgument("flag --" + name + " given twice");
    }
    if (name == "list-metrics") {
      if (has_value) {
        return Status::InvalidArgument("--list-metrics takes no value");
      }
      flags.list_metrics = true;
      continue;
    }
    if (!has_value) {
      if (i + 1 >= args.size()) {
        return Status::InvalidArgument("flag --" + name + " needs a value");
      }
      value = args[++i];
    }
    if (name == "workload") {
      const bool known =
          value == "all" || std::find(known_workloads.begin(),
                                      known_workloads.end(),
                                      value) != known_workloads.end();
      if (!known) {
        return Status::InvalidArgument("unknown workload '" + value + "'");
      }
      flags.workload = value;
    } else if (name == "seed") {
      SRP_ASSIGN_OR_RETURN(flags.seed, ParseUnsigned(value));
    } else if (name == "seconds") {
      SRP_ASSIGN_OR_RETURN(const uint64_t seconds, ParseUnsigned(value));
      if (seconds < 1 || seconds > 3600) {
        return Status::OutOfRange("--seconds must be in [1, 3600]");
      }
      flags.seconds = static_cast<int>(seconds);
    } else if (name == "trace") {
      if (value != "0" && value != "1") {
        return Status::InvalidArgument("--trace must be 0 or 1, got '" +
                                       value + "'");
      }
      flags.trace = value == "1";
    } else if (name == "out-dir") {
      if (value.empty()) return Status::InvalidArgument("--out-dir is empty");
      flags.out_dir = value;
    } else {
      return Status::InvalidArgument("unknown flag --" + name);
    }
  }
  return flags;
}

}  // namespace perfbench
