#include "util/str.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace lc {

std::string Format(const char* fmt, ...) {
  // One pass into a stack buffer covers nearly every call (response lines,
  // log text); only longer output pays a second, exactly sized pass.
  char stack[256];
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(stack, sizeof(stack), fmt, args);
  va_end(args);
  std::string result;
  if (needed > 0 && static_cast<size_t>(needed) < sizeof(stack)) {
    result.assign(stack, static_cast<size_t>(needed));
  } else if (needed > 0) {
    result.resize(static_cast<size_t>(needed) + 1);
    std::vsnprintf(result.data(), result.size(), fmt, args_copy);
    result.resize(static_cast<size_t>(needed));
  }
  va_end(args_copy);
  return result;
}

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      return parts;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string result;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) result += sep;
    result += parts[i];
  }
  return result;
}

std::string Trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return std::string(text.substr(begin, end - begin));
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string HumanBytes(size_t bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB"};
  double value = static_cast<double>(bytes);
  size_t unit = 0;
  while (value >= 1024.0 && unit + 1 < 4) {
    value /= 1024.0;
    ++unit;
  }
  if (unit == 0) return Format("%zu B", bytes);
  return Format("%.2f %s", value, units[unit]);
}

std::string HumanSeconds(double seconds) {
  if (seconds < 1e-3) return Format("%.1f us", seconds * 1e6);
  if (seconds < 1.0) return Format("%.2f ms", seconds * 1e3);
  if (seconds < 120.0) return Format("%.2f s", seconds);
  return Format("%.1f min", seconds / 60.0);
}

std::string HumanNumber(double value) {
  const double magnitude = std::fabs(value);
  if (magnitude >= 1e6) return Format("%.3g", value);
  if (magnitude >= 100.0) return Format("%.0f", value);
  if (magnitude >= 10.0) return Format("%.1f", value);
  return Format("%.2f", value);
}

Status ParseInt32(std::string_view text, int32_t min_value, int32_t* out) {
  // strtoll needs a NUL terminator; the pieces parsed here are short.
  const std::string piece(text);
  // strtoll itself is lenient about leading whitespace and '+'; whole-
  // piece discipline means the first byte must already be the number.
  if (piece.empty() ||
      !(std::isdigit(static_cast<unsigned char>(piece[0])) ||
        piece[0] == '-')) {
    return Status::InvalidArgument("bad integer: '" + piece + "'");
  }
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(piece.c_str(), &end, 10);
  if (end != piece.c_str() + piece.size()) {
    return Status::InvalidArgument("bad integer: '" + piece + "'");
  }
  if (errno == ERANGE || value < min_value ||
      value > std::numeric_limits<int32_t>::max()) {
    return Status::InvalidArgument("integer out of range: '" + piece + "'");
  }
  *out = static_cast<int32_t>(value);
  return Status::OK();
}

Status ParseDouble(std::string_view text, double* out) {
  const std::string piece(text);
  // Plain decimal syntax only: strtod additionally accepts leading
  // whitespace/'+', hex floats ("0x1p-1") and inf/nan spellings, all of
  // which whole-piece discipline for untrusted text must reject.
  if (piece.empty() ||
      !(std::isdigit(static_cast<unsigned char>(piece[0])) ||
        piece[0] == '-' || piece[0] == '.')) {
    return Status::InvalidArgument("bad number: '" + piece + "'");
  }
  for (char c : piece) {
    const bool allowed = std::isdigit(static_cast<unsigned char>(c)) ||
                         c == '.' || c == 'e' || c == 'E' || c == '+' ||
                         c == '-';
    if (!allowed) {
      return Status::InvalidArgument("bad number: '" + piece + "'");
    }
  }
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(piece.c_str(), &end);
  if (end != piece.c_str() + piece.size()) {
    return Status::InvalidArgument("bad number: '" + piece + "'");
  }
  if (errno == ERANGE || !std::isfinite(value)) {
    return Status::InvalidArgument("number out of range: '" + piece + "'");
  }
  *out = value;
  return Status::OK();
}

}  // namespace lc
