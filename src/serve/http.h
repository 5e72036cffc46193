#ifndef COACHLM_SERVE_HTTP_H_
#define COACHLM_SERVE_HTTP_H_

#include <cstddef>
#include <map>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace coachlm {
namespace serve {

/// \brief Bounds the HTTP parser enforces on untrusted request bytes.
///
/// Mirrors json::ParseLimits in spirit: every bound turns a hostile
/// envelope — an unbounded request line, a header bomb, a multi-GB body —
/// into a typed Status the server maps to a 4xx, never into unbounded
/// buffering or a crash. The body cap is checked against Content-Length
/// *before* any body byte is buffered.
struct HttpLimits {
  size_t max_request_line_bytes = 8u << 10;
  size_t max_header_bytes = 64u << 10;
  size_t max_headers = 64;
  /// Whole-body byte budget (JSONL revision payloads); the per-record cap
  /// stays with json::ParseLimits::max_record_bytes at parse time.
  size_t max_body_bytes = 32u << 20;
};

/// \brief One parsed HTTP/1.1 request.
///
/// Header names are lowercased at parse time; values keep their bytes
/// (leading/trailing whitespace trimmed). std::map keeps iteration
/// deterministic wherever headers are serialized back out.
struct HttpRequest {
  std::string method;  ///< "GET", "POST", ... (uppercase as sent).
  std::string target;  ///< Request target, e.g. "/v1/revise".
  std::map<std::string, std::string> headers;
  std::string body;

  /// Header value by lowercase name; empty string when absent.
  const std::string& Header(const std::string& lowercase_name) const;
};

/// \brief One HTTP/1.1 response; Serialize() emits the wire bytes with
/// Content-Length and Connection: close (the server speaks one request per
/// connection).
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  /// Extra headers beyond Content-Type/Content-Length/Connection, in map
  /// (name) order so the wire bytes are deterministic.
  std::map<std::string, std::string> headers;
  std::string body;

  std::string Serialize() const;
};

/// Canonical reason phrase for the status codes the server emits.
const char* HttpReasonPhrase(int status);

/// Maps a typed Status onto the HTTP status code of its failure class:
/// invalid/parse/out-of-range -> 400, resource-exhausted -> 413,
/// not-found -> 404, deadline -> 504, unavailable -> 503,
/// not-implemented -> 501, everything else -> 500.
int HttpStatusFromStatus(const Status& status);

/// A JSON error body `{"error": {"code", "message"}}` for \p status.
std::string HttpErrorBody(const Status& status);

/// \brief Incremental HTTP/1.1 request parser (push model).
///
/// Feed() consumes raw socket bytes; once the head (request line +
/// headers) is complete the parser knows the declared body length and
/// keeps consuming until the body is complete. Violations of HttpLimits
/// and malformed syntax surface as sticky typed errors:
///   kInvalidArgument   malformed request line / header / Content-Length
///   kResourceExhausted request line, header block, or body over budget
///   kNotImplemented    Transfer-Encoding (chunked bodies unsupported)
/// The parser never buffers past the first violation, so a hostile peer
/// cannot make the server hold more than the configured bounds.
class HttpRequestParser {
 public:
  explicit HttpRequestParser(HttpLimits limits = {});

  /// Consumes \p len bytes. Returns the first violation (sticky) or OK.
  [[nodiscard]] Status Feed(const char* data, size_t len);

  /// True once the request (head + declared body) is fully parsed.
  bool complete() const { return complete_; }

  /// The parsed request; valid once complete().
  const HttpRequest& request() const { return request_; }

 private:
  [[nodiscard]] Status ParseHead();
  [[nodiscard]] Status ParseRequestLine(const std::string& line);
  [[nodiscard]] Status ParseHeaderLine(const std::string& line);
  [[nodiscard]] Status FinishHead();

  HttpLimits limits_;
  std::string buffer_;      ///< Unconsumed head bytes.
  bool head_complete_ = false;
  bool complete_ = false;
  size_t body_expected_ = 0;
  Status error_;
  HttpRequest request_;
};

/// Parses a complete serialized request in one call (tests and the
/// in-process handler harness).
[[nodiscard]] Result<HttpRequest> ParseHttpRequest(const std::string& raw,
                                                   const HttpLimits& limits = {});

/// \brief Minimal response parser for the load-generator client: status
/// code, headers, and a Content-Length body.
struct ParsedHttpResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  ///< Lowercased names.
  std::string body;
};

[[nodiscard]] Result<ParsedHttpResponse> ParseHttpResponse(
    const std::string& raw);

}  // namespace serve
}  // namespace coachlm

#endif  // COACHLM_SERVE_HTTP_H_
