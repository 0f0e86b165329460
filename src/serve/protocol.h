// Line protocol of the estimator server: one request per line, one response
// line per request. A request line is the compact query text of
// Query::Serialize ("T:0,1|J:0|P:0.1>2005"); the response reports the
// estimate, the request latency, and whether the result cache served it:
//
//   -> T:0,2|J:1|P:0.3>1990
//   <- EST 1.234560e+04 us=87.3 cache=miss
//   -> T:9999|J:|P:
//   <- ERR InvalidArgument table id 9999 out of range [0, 6)
//
// Lines starting with "ADMIN " are operator commands, answered with an
// "OK <detail>" or "ERR ..." line:
//
//   -> ADMIN RETRAIN        kick a background copy-train-swap model update
//   <- OK retrain started
//   -> ADMIN STATS          one-line counter snapshot
//   <- OK served=812 swaps=1 stale_retirements=40 ...
//
// Malformed input never crashes the server: every rejection is a typed
// Status rendered as an ERR line (see exec/query.cc for the strict parser
// and Query::Validate for the schema checks).

#ifndef LC_SERVE_PROTOCOL_H_
#define LC_SERVE_PROTOCOL_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "util/status.h"

namespace lc {
namespace serve {

/// The outcome of one request, whether it was served from the cache, a
/// batched forward pass, or rejected before reaching the model.
struct Response {
  Status status;           // Non-OK: no estimate was produced.
  double estimate = 0.0;   // Denormalized cardinality estimate.
  bool cache_hit = false;  // Served from the estimator result cache.
  double latency_us = 0.0; // Admission to completion (steady clock).
};

/// Longest request line in bytes, excluding its '\n' terminator (a '\r'
/// before it counts). The one length bound of the protocol:
/// ParseRequestLine enforces it on every line, and the socket transport's
/// framer stops buffering a line that crosses it, so one hostile client
/// cannot force unbounded allocation downstream.
constexpr size_t kMaxRequestLineBytes = 1 << 16;

/// The rejection of a request line longer than kMaxRequestLineBytes. The
/// same status whether ParseRequestLine sees the whole line or the socket
/// framer rejects it as it crosses the bound.
Status RequestLineTooLong();

/// Extracts the query text from one request line: trims ASCII whitespace,
/// rejects empty lines and lines beyond kMaxRequestLineBytes.
StatusOr<std::string> ParseRequestLine(std::string_view line);

/// Renders a response line: "EST <estimate> us=<latency> cache=<hit|miss>"
/// on success, "ERR <CodeName> <message>" otherwise. Estimates print with
/// %.17g so the line round-trips the double exactly (the bit-match
/// guarantee of the serving path is observable through the protocol).
std::string FormatResponse(const Response& response);

/// Reads the estimate back from an "EST ..." line of FormatResponse,
/// bit-exact; any other line (ERR, OK, garbage) is InvalidArgument.
StatusOr<double> ParseEstimate(std::string_view line);

/// True when a (ParseRequestLine-cleaned) request is an operator command
/// rather than query text.
bool IsAdminRequest(std::string_view text);

/// Extracts the admin verb ("RETRAIN", "STATS", ...) from an admin request
/// line. Verbs are single uppercase-alphanumeric words; anything else is
/// InvalidArgument — untrusted clients reach this parser too.
StatusOr<std::string> ParseAdminVerb(std::string_view text);

/// Renders an admin command outcome: "OK <detail>" on success (detail must
/// be single-line), "ERR <CodeName> <message>" otherwise.
std::string FormatAdminResponse(const Status& status,
                                std::string_view detail);

}  // namespace serve
}  // namespace lc

#endif  // LC_SERVE_PROTOCOL_H_
