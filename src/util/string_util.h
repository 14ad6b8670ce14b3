#ifndef SRP_UTIL_STRING_UTIL_H_
#define SRP_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace srp {

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins `parts` with `delim`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view delim);

/// Strips ASCII whitespace from both ends.
std::string Trim(std::string_view s);

/// Fixed-precision decimal formatting: byte for byte printf "%.*f", for any
/// value (up to DBL_MAX) and any precision.
std::string FormatDouble(double value, int precision);

/// Strict decimal parsing for untrusted input (CSV cells, CLI values):
/// the WHOLE trimmed string must parse (strtod semantics — "1e3", "-0.5",
/// "inf", "nan" are valid doubles). Empty or partially consumed input fails
/// with InvalidArgument; magnitude overflow fails with OutOfRange. Contrast
/// with std::stod, which happily accepts "12abc" and throws on errors.
Result<double> ParseDouble(std::string_view s);

/// Strict unsigned-integer twin of ParseDouble: the WHOLE trimmed string
/// must be decimal digits, so a sign ("-1", "+1"), a fraction, an exponent
/// or a hex prefix fails with InvalidArgument; a value past uint64_t fails
/// with OutOfRange. Contrast with atoll, which maps "abc" to 0.
Result<uint64_t> ParseUint64(std::string_view s);

/// Left-pads/truncates to `width` for aligned console tables.
std::string PadRight(std::string_view s, size_t width);

}  // namespace srp

#endif  // SRP_UTIL_STRING_UTIL_H_
