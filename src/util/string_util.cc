#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace srp {

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view delim) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(delim);
    out.append(parts[i]);
  }
  return out;
}

std::string Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::string FormatDouble(double value, int precision) {
  // printf treats a negative precision as omitted, i.e. 6.
  if (precision < 0) precision = 6;
  // "%.Nf" of -DBL_MAX: the sign, 309 integer digits, the point and N
  // decimals. Every double fits, so no value is ever cut short.
  constexpr size_t kMaxFixedPrefix = 1 + (DBL_MAX_10_EXP + 1) + 1;
  const size_t size = kMaxFixedPrefix + static_cast<size_t>(precision);
  char stack_buf[kMaxFixedPrefix + 32];
  std::vector<char> heap_buf;
  char* buf = stack_buf;
  if (size > sizeof(stack_buf)) {
    heap_buf.resize(size);
    buf = heap_buf.data();
  }
  // The standard defines to_chars' output as printf's for the same
  // conversion, at a fraction of the cost.
  const std::to_chars_result r = std::to_chars(
      buf, buf + size, value, std::chars_format::fixed, precision);
  return std::string(buf, r.ptr);
}

Result<double> ParseDouble(std::string_view s) {
  const std::string trimmed = Trim(s);
  if (trimmed.empty()) {
    return Status::InvalidArgument("cannot parse empty string as a number");
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(trimmed.c_str(), &end);
  if (end != trimmed.c_str() + trimmed.size()) {
    return Status::InvalidArgument("not a number: '" + trimmed + "'");
  }
  if (errno == ERANGE && (value == HUGE_VAL || value == -HUGE_VAL)) {
    return Status::OutOfRange("number out of double range: '" + trimmed +
                              "'");
  }
  return value;
}

Result<uint64_t> ParseUint64(std::string_view s) {
  const std::string trimmed = Trim(s);
  if (trimmed.empty()) {
    return Status::InvalidArgument("cannot parse empty string as an integer");
  }
  uint64_t value = 0;
  for (const char ch : trimmed) {
    if (ch < '0' || ch > '9') {
      return Status::InvalidArgument("not an unsigned integer: '" + trimmed +
                                     "'");
    }
    const auto digit = static_cast<uint64_t>(ch - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      return Status::OutOfRange("integer out of range: '" + trimmed + "'");
    }
    value = value * 10 + digit;
  }
  return value;
}

std::string PadRight(std::string_view s, size_t width) {
  std::string out(s);
  if (out.size() < width) out.append(width - out.size(), ' ');
  return out;
}

}  // namespace srp
