// HTTP/1.1 request parsing and response serialization — transport-
// neutral and allocation-bounded.
//
// HttpParser is a push parser: the epoll loop (net/server.h) Feeds it
// whatever bytes arrived and asks for complete requests; the parser
// never blocks, never reads a socket, and never grows past its
// configured limits, which makes it both the unit under the seeded
// malformed-input fuzzer (tests/wire_fuzz_test.cc) and trivially
// reusable by tests without any networking. Errors are typed: every
// reject carries the HTTP status the transport should answer before
// closing (400 bad syntax, 413 oversized body, 431 oversized headers,
// 501 unimplemented transfer-encoding, 505 unsupported version).
//
// Scope: the subset a JSON API server needs. Content-Length bodies
// only (Transfer-Encoding is refused with 501, never mis-framed),
// CRLF line endings, no obs-fold continuation headers, no trailers.
// Pipelined requests are supported — parsed bytes beyond the first
// request stay buffered until the next Next() call.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace hopi::net {

struct HttpParserLimits {
  /// Request line + header block, in bytes (431 beyond).
  size_t max_header_bytes = 16 * 1024;
  /// Header count (431 beyond).
  size_t max_headers = 64;
  /// Content-Length bound (413 beyond).
  size_t max_body_bytes = 8u << 20;
};

/// One parsed request. Header names are lowercased at parse time
/// (HTTP headers are case-insensitive); values keep their bytes with
/// surrounding whitespace trimmed.
struct HttpRequest {
  std::string method;
  std::string target;
  int version_minor = 1;  ///< HTTP/1.<minor>; only 0 and 1 are accepted.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  /// Connection semantics already resolved against the version
  /// defaults: 1.1 keep-alive unless "Connection: close", 1.0 close
  /// unless "Connection: keep-alive".
  bool keep_alive = true;

  /// First header named `name_lower` (must be given lowercased), or
  /// nullptr.
  const std::string* FindHeader(std::string_view name_lower) const;
};

/// A typed parse reject: what to answer, and why.
struct HttpError {
  int http_status = 400;
  Status status = Status::OK();
};

/// Incremental request parser. One instance per connection; not
/// thread-safe. After an error the parser is poisoned (the connection
/// is answered and closed — there is no way to resynchronize a broken
/// byte stream).
class HttpParser {
 public:
  explicit HttpParser(HttpParserLimits limits = {});

  /// Appends raw connection bytes. Cheap; parsing happens in Next().
  void Feed(std::string_view bytes);

  enum class Step {
    kNeedMore,  ///< No complete request buffered yet.
    kRequest,   ///< *out holds the next request.
    kError,     ///< *error describes the reject; parser is poisoned.
  };

  /// Extracts the next complete request, FIFO across pipelined input.
  Step Next(HttpRequest* out, HttpError* error);

  /// Bytes currently buffered (unconsumed input).
  size_t BufferedBytes() const { return buffer_.size() - consumed_; }

  /// True once after a head with "Expect: 100-continue" was parsed and
  /// its body is still outstanding — the transport should write the
  /// interim "HTTP/1.1 100 Continue" response. Clears on read.
  bool TakeContinueNeeded() {
    bool needed = continue_needed_;
    continue_needed_ = false;
    return needed;
  }

 private:
  Step Poison(int http_status, std::string why, HttpError* error);
  Step ParseHead(HttpRequest* out, HttpError* error);

  HttpParserLimits limits_;
  std::string buffer_;
  size_t consumed_ = 0;  // prefix of buffer_ already handed out
  bool poisoned_ = false;
  bool continue_needed_ = false;
  // Head parsed, waiting for body bytes.
  bool in_body_ = false;
  size_t body_remaining_ = 0;
  HttpRequest pending_;
};

/// One response, serialized by AppendResponse. `close` emits
/// "Connection: close" (the transport closes after writing).
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  bool close = false;
  /// Extra headers appended verbatim (e.g. {"retry-after", "1"}).
  std::vector<std::pair<std::string, std::string>> extra_headers;
};

/// Appends status line + headers + body to *out, growing it once.
/// Content-Length is always emitted (the framing the parser on the
/// other side relies on).
void AppendResponse(std::string* out, const HttpResponse& response);

/// AppendResponse into a fresh string.
std::string SerializeResponse(const HttpResponse& response);

/// Reason phrase for the handful of statuses the server emits;
/// "Unknown" otherwise.
std::string_view HttpStatusText(int status);

}  // namespace hopi::net
