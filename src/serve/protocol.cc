#include "serve/protocol.h"

#include "util/str.h"

namespace lc {
namespace serve {

namespace {

bool IsControlChar(char c) {
  const unsigned char byte = static_cast<unsigned char>(c);
  return byte < 0x20 || byte == 0x7f;
}

// Status messages can echo request bytes (strict parse errors quote the
// offending piece); scrubbing control characters here keeps a hostile
// request from smuggling line breaks into the one-line response framing.
std::string SanitizeForLine(std::string_view text) {
  std::string sanitized(text);
  for (char& c : sanitized) {
    if (IsControlChar(c)) c = ' ';
  }
  return sanitized;
}

}  // namespace

Status RequestLineTooLong() {
  return Status::InvalidArgument(Format(
      "request line exceeds the %zu byte limit", kMaxRequestLineBytes));
}

StatusOr<std::string> ParseRequestLine(std::string_view line) {
  if (line.size() > kMaxRequestLineBytes) return RequestLineTooLong();
  std::string text = Trim(line);
  if (text.empty()) {
    return Status::InvalidArgument("empty request line");
  }
  // Interior control characters (Trim only strips the edges) are never
  // part of a valid query text; reject without echoing the raw bytes.
  for (char c : text) {
    if (IsControlChar(c)) {
      return Status::InvalidArgument(
          "request line contains control characters");
    }
  }
  return text;
}

std::string FormatResponse(const Response& response) {
  if (!response.status.ok()) {
    return Format("ERR %s %s", StatusCodeName(response.status.code()),
                  SanitizeForLine(response.status.message()).c_str());
  }
  return Format("EST %.17g us=%.1f cache=%s", response.estimate,
                response.latency_us, response.cache_hit ? "hit" : "miss");
}

StatusOr<double> ParseEstimate(std::string_view line) {
  constexpr std::string_view kPrefix = "EST ";
  if (line.substr(0, kPrefix.size()) != kPrefix) {
    return Status::InvalidArgument("not an EST response line");
  }
  line.remove_prefix(kPrefix.size());
  double estimate = 0.0;
  LC_RETURN_IF_ERROR(ParseDouble(line.substr(0, line.find(' ')), &estimate));
  return estimate;
}

namespace {
constexpr std::string_view kAdminPrefix = "ADMIN ";
}  // namespace

bool IsAdminRequest(std::string_view text) {
  // A bare "ADMIN" (verb missing) is still an admin request — it must get
  // an admin-shaped error, not fall through to the query parser.
  return text == "ADMIN" ||
         text.substr(0, kAdminPrefix.size()) == kAdminPrefix;
}

StatusOr<std::string> ParseAdminVerb(std::string_view text) {
  if (!IsAdminRequest(text)) {
    return Status::InvalidArgument("not an admin request line");
  }
  const std::string verb =
      text.size() <= kAdminPrefix.size()
          ? std::string()
          : Trim(text.substr(kAdminPrefix.size()));
  if (verb.empty()) {
    return Status::InvalidArgument("missing admin verb");
  }
  for (char c : verb) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
    if (!ok) {
      return Status::InvalidArgument("bad admin verb: '" +
                                     SanitizeForLine(verb) + "'");
    }
  }
  return verb;
}

std::string FormatAdminResponse(const Status& status,
                                std::string_view detail) {
  if (!status.ok()) {
    return Format("ERR %s %s", StatusCodeName(status.code()),
                  SanitizeForLine(status.message()).c_str());
  }
  return Format("OK %s", SanitizeForLine(detail).c_str());
}

}  // namespace serve
}  // namespace lc
