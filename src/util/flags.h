#ifndef SRP_UTIL_FLAGS_H_
#define SRP_UTIL_FLAGS_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace srp {

/// One command-line flag of a tool. Declare each flag once, through the
/// *Flag function of its kind: ParseFlags and PrintFlagUsage read every
/// rule from that one declaration.
struct Flag {
  const char* name;        ///< without the leading "--", words joined by '-'
  const char* value_name;  ///< the value's placeholder; "" for a bool flag
  const char* help;        ///< one line
  std::string rule;        ///< the accepted values, as usage and errors say
  /// The destination's value at declaration, as the usage shows it; empty
  /// for a zero or empty value, which reads as unset.
  std::string default_text;
  /// Stores `value` in the flag's destination if the flag accepts it.
  std::function<bool(std::string_view value)> store;
};

/// Any text, the empty string included.
Flag StringFlag(const char* name, std::string* out, const char* value_name,
                const char* help);
/// Takes no value: naming the flag sets `*out`.
Flag BoolFlag(const char* name, bool* out, const char* help);
/// A decimal integer in [min, max]; uint64_t's maximum means no upper bound.
Flag CountFlag(const char* name, uint64_t* out, uint64_t min,
               const char* help,
               uint64_t max = std::numeric_limits<uint64_t>::max());
/// A number in [min, max], never NaN; the largest double means any finite
/// number from `min` up.
Flag RealFlag(const char* name, double* out, double min, const char* help,
              double max = std::numeric_limits<double>::max());
/// Milliseconds in (0, 1e12]: ~31.7 years, RunContext's deadline bound,
/// which keeps any wait far inside the int64 nanosecond clock.
Flag MillisFlag(const char* name, double* out, const char* help);

/// What a well-formed command line asks for.
enum class FlagAction {
  kRun,   ///< every flag is stored; go on
  kHelp,  ///< --help was given: print the usage and exit 0
};

/// Parses argv[1..argc) into the destinations of `flags`. `--flag value`
/// and `--flag=value` both work, and '_' counts as '-' in a flag name. A
/// bool flag takes no value. Arguments not starting with '-' go to
/// `positional`; with a null `positional` they are errors. Returns
/// InvalidArgument, naming the flag and the rule it broke, for an unknown,
/// repeated or single-dash flag, a missing value or a value out of bounds.
/// Stops at `--help`, leaving later arguments unread.
Result<FlagAction> ParseFlags(int argc, char** argv,
                              const std::vector<Flag>& flags,
                              std::vector<std::string>* positional);

/// The usage text: "usage: <synopsis>", one line per flag (its value, help,
/// accepted range and default), then --help and the spelling rules.
void PrintFlagUsage(std::FILE* out, std::string_view synopsis,
                    const std::vector<Flag>& flags);

/// A usage error: the usage text, then `message`, on stderr. Returns the
/// exit code of a usage error, 2.
int FlagUsageError(std::string_view synopsis, const std::vector<Flag>& flags,
                   std::string_view message);

/// ParseFlags for a tool's main. Returns the exit code to stop with: 0 after
/// printing the usage to stdout for --help, or FlagUsageError's 2. Returns
/// nullopt when the tool should go on.
std::optional<int> ParseToolFlags(int argc, char** argv,
                                  std::string_view synopsis,
                                  const std::vector<Flag>& flags,
                                  std::vector<std::string>* positional);

}  // namespace srp

#endif  // SRP_UTIL_FLAGS_H_
