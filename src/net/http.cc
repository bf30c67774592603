#include "net/http.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "net/json.h"

namespace hopi::net {
namespace {

bool IsTokenChar(unsigned char c) {
  // RFC 9110 tchar.
  if (std::isalnum(c)) return true;
  switch (c) {
    case '!': case '#': case '$': case '%': case '&': case '\'': case '*':
    case '+': case '-': case '.': case '^': case '_': case '`': case '|':
    case '~':
      return true;
    default:
      return false;
  }
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  return s.substr(b, e - b);
}

/// Case-insensitive membership in a comma-separated token list
/// ("Connection: keep-alive, TE").
bool ListContains(std::string_view list, std::string_view token_lower) {
  size_t pos = 0;
  while (pos <= list.size()) {
    size_t comma = list.find(',', pos);
    std::string_view item = comma == std::string_view::npos
                                ? list.substr(pos)
                                : list.substr(pos, comma - pos);
    if (ToLower(Trim(item)) == token_lower) return true;
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  return false;
}

}  // namespace

const std::string* HttpRequest::FindHeader(std::string_view name_lower) const {
  for (const auto& [name, value] : headers) {
    if (name == name_lower) return &value;
  }
  return nullptr;
}

HttpParser::HttpParser(HttpParserLimits limits) : limits_(limits) {}

void HttpParser::Feed(std::string_view bytes) {
  if (poisoned_) return;  // connection is being torn down anyway
  // Compact before growing: the consumed prefix is dead weight.
  if (consumed_ > 0 && (consumed_ == buffer_.size() || consumed_ > 65536)) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(bytes);
}

HttpParser::Step HttpParser::Poison(int http_status, std::string why,
                                    HttpError* error) {
  poisoned_ = true;
  error->http_status = http_status;
  error->status = Status::InvalidArgument(std::move(why));
  return Step::kError;
}

HttpParser::Step HttpParser::Next(HttpRequest* out, HttpError* error) {
  if (poisoned_) {
    error->http_status = 400;
    error->status = Status::FailedPrecondition("parser already failed");
    return Step::kError;
  }
  if (!in_body_) {
    Step head = ParseHead(out, error);
    if (head != Step::kRequest) return head;  // kNeedMore or kError
    // Fall through: head parsed into pending_, body may be complete.
  }
  if (BufferedBytes() < body_remaining_) return Step::kNeedMore;
  pending_.body.assign(buffer_, consumed_, body_remaining_);
  consumed_ += body_remaining_;
  body_remaining_ = 0;
  in_body_ = false;
  *out = std::move(pending_);
  pending_ = HttpRequest{};
  return Step::kRequest;
}

HttpParser::Step HttpParser::ParseHead(HttpRequest* out, HttpError* error) {
  (void)out;
  std::string_view view(buffer_);
  view = view.substr(consumed_);
  size_t head_end = view.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    if (view.size() > limits_.max_header_bytes) {
      return Poison(431, "header block exceeds " +
                             std::to_string(limits_.max_header_bytes) +
                             " bytes", error);
    }
    return Step::kNeedMore;
  }
  if (head_end > limits_.max_header_bytes) {
    return Poison(431, "header block exceeds " +
                           std::to_string(limits_.max_header_bytes) + " bytes",
                  error);
  }
  std::string_view head = view.substr(0, head_end);
  consumed_ += head_end + 4;

  HttpRequest request;

  // ---- request line: METHOD SP TARGET SP HTTP/1.x ----
  size_t line_end = head.find("\r\n");
  std::string_view line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos || sp1 == 0) {
    return Poison(400, "malformed request line", error);
  }
  std::string_view method = line.substr(0, sp1);
  for (unsigned char c : method) {
    if (!IsTokenChar(c)) return Poison(400, "invalid method token", error);
  }
  size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos || sp2 == sp1 + 1) {
    return Poison(400, "malformed request line", error);
  }
  std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  for (unsigned char c : target) {
    if (c <= ' ' || c == 0x7F) {
      return Poison(400, "invalid request target", error);
    }
  }
  std::string_view version = line.substr(sp2 + 1);
  if (version.size() != 8 || !version.starts_with("HTTP/1.") ||
      (version[7] != '0' && version[7] != '1')) {
    if (version.starts_with("HTTP/")) {
      return Poison(505, "unsupported HTTP version", error);
    }
    return Poison(400, "malformed request line", error);
  }
  request.method.assign(method);
  request.target.assign(target);
  request.version_minor = version[7] - '0';

  // ---- header fields ----
  size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    std::string_view field = eol == std::string_view::npos
                                 ? head.substr(pos)
                                 : head.substr(pos, eol - pos);
    pos = eol == std::string_view::npos ? head.size() : eol + 2;
    if (field.empty()) return Poison(400, "empty header field", error);
    if (field[0] == ' ' || field[0] == '\t') {
      // Deprecated obs-fold continuation: refusing is the RFC 7230
      // MUST-level option for servers.
      return Poison(400, "obsolete line folding", error);
    }
    size_t colon = field.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return Poison(400, "header field without ':'", error);
    }
    std::string_view name = field.substr(0, colon);
    for (unsigned char c : name) {
      if (!IsTokenChar(c)) {
        // Space before ':' included — request smuggling classic.
        return Poison(400, "invalid header name", error);
      }
    }
    std::string_view value = Trim(field.substr(colon + 1));
    for (unsigned char c : value) {
      if (c < 0x20 && c != '\t') {
        return Poison(400, "control byte in header value", error);
      }
    }
    if (request.headers.size() >= limits_.max_headers) {
      return Poison(431, "more than " + std::to_string(limits_.max_headers) +
                             " headers", error);
    }
    request.headers.emplace_back(ToLower(name), std::string(value));
  }

  // ---- framing ----
  if (request.FindHeader("transfer-encoding") != nullptr) {
    return Poison(501, "Transfer-Encoding not implemented", error);
  }
  size_t content_length = 0;
  bool have_length = false;
  for (const auto& [name, value] : request.headers) {
    if (name != "content-length") continue;
    if (value.empty() || value.size() > 18) {
      return Poison(400, "bad Content-Length", error);
    }
    size_t parsed = 0;
    for (char c : value) {
      if (c < '0' || c > '9') return Poison(400, "bad Content-Length", error);
      parsed = parsed * 10 + static_cast<size_t>(c - '0');
    }
    if (have_length && parsed != content_length) {
      return Poison(400, "conflicting Content-Length headers", error);
    }
    content_length = parsed;
    have_length = true;
  }
  if (content_length > limits_.max_body_bytes) {
    return Poison(413, "body of " + std::to_string(content_length) +
                           " bytes exceeds limit of " +
                           std::to_string(limits_.max_body_bytes), error);
  }

  // ---- connection semantics ----
  request.keep_alive = request.version_minor >= 1;
  if (const std::string* conn = request.FindHeader("connection")) {
    if (ListContains(*conn, "close")) request.keep_alive = false;
    if (request.version_minor == 0 && ListContains(*conn, "keep-alive")) {
      request.keep_alive = true;
    }
  }

  if (const std::string* expect = request.FindHeader("expect")) {
    if (content_length > 0 && ListContains(*expect, "100-continue")) {
      continue_needed_ = true;
    }
  }

  pending_ = std::move(request);
  body_remaining_ = content_length;
  in_body_ = true;
  return Step::kRequest;  // head complete; caller checks the body next
}

std::string_view HttpStatusText(int status) {
  switch (status) {
    case 100: return "Continue";
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Content Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Unknown";
  }
}

void AppendResponse(std::string* out, const HttpResponse& response) {
  // Status line and fixed headers fit in 128 bytes; the rest is counted.
  size_t bytes = 128 + response.content_type.size() + response.body.size();
  for (const auto& [name, value] : response.extra_headers) {
    bytes += name.size() + value.size() + 4;
  }
  out->reserve(out->size() + bytes);
  out->append("HTTP/1.1 ");
  AppendJsonUint(out, static_cast<uint64_t>(response.status));
  out->push_back(' ');
  out->append(HttpStatusText(response.status));
  out->append("\r\n");
  if (!response.content_type.empty()) {
    out->append("content-type: ");
    out->append(response.content_type);
    out->append("\r\n");
  }
  out->append("content-length: ");
  AppendJsonUint(out, response.body.size());
  out->append("\r\n");
  for (const auto& [name, value] : response.extra_headers) {
    out->append(name);
    out->append(": ");
    out->append(value);
    out->append("\r\n");
  }
  if (response.close) out->append("connection: close\r\n");
  out->append("\r\n");
  out->append(response.body);
}

std::string SerializeResponse(const HttpResponse& response) {
  std::string out;
  AppendResponse(&out, response);
  return out;
}

}  // namespace hopi::net
