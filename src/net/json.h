// Strict, dependency-free JSON for the wire layer.
//
// The serving front-end speaks a hand-rolled JSON wire format
// (docs/WIRE_FORMAT.md); this header is its foundation: a token reader
// (JsonReader), a recursive-descent parser building a JsonValue tree on
// top of it, and appending helpers for the writer side. Reading is
// deliberately strict — RFC 8259 grammar only, no comments, no trailing
// commas, no NaN/Inf, full-input consumption, bounded nesting depth —
// because every byte arriving here crossed a network boundary: anything
// malformed must become a typed InvalidArgument (HTTP 400), never UB or
// an accepted approximation. The corruption fuzzer
// (tests/wire_fuzz_test.cc) enforces exactly that under ASan/UBSan.
//
// Object members keep their textual order in a flat vector (like
// BenchReport): lookups are O(members), which is fine for the wire
// format's handful of keys, and order preservation makes serialization
// deterministic. Duplicate keys are rejected — a request whose meaning
// depends on which duplicate wins is a smuggling vector, not a client.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/result.h"

namespace hopi::net {

struct JsonParseLimits {
  /// Maximum container nesting (objects + arrays). The wire format
  /// needs 3; the default leaves headroom without letting "[[[[..."
  /// recurse the stack away.
  size_t max_depth = 32;
  /// Maximum total container elements (array items + object members)
  /// across the document — a flat-bomb bound independent of body size
  /// limits.
  size_t max_elements = 1u << 20;
};

/// One parsed JSON value. kNumber is double throughout (the wire
/// format's integers — node ids, counts — are all well under 2^53).
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : value_(nullptr) {}
  explicit JsonValue(std::nullptr_t) : value_(nullptr) {}
  explicit JsonValue(bool b) : value_(b) {}
  explicit JsonValue(double d) : value_(d) {}
  explicit JsonValue(std::string s) : value_(std::move(s)) {}
  explicit JsonValue(Array a) : value_(std::move(a)) {}
  explicit JsonValue(Object o) : value_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  // Precondition: the matching is_*() holds.
  bool AsBool() const { return std::get<bool>(value_); }
  double AsNumber() const { return std::get<double>(value_); }
  const std::string& AsString() const { return std::get<std::string>(value_); }
  const Array& AsArray() const { return std::get<Array>(value_); }
  const Object& AsObject() const { return std::get<Object>(value_); }

  /// First member named `key`, or nullptr. Precondition: is_object().
  const JsonValue* Find(std::string_view key) const {
    for (const auto& [name, value] : AsObject()) {
      if (name == key) return &value;
    }
    return nullptr;
  }

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
};

/// Parses exactly one JSON document covering all of `text` (leading /
/// trailing RFC whitespace tolerated). InvalidArgument on any
/// violation, with a byte offset in the message.
Result<JsonValue> ParseJson(std::string_view text,
                            const JsonParseLimits& limits = {});

/// The JSON tokens of one document, read left to right: whitespace,
/// literals, escaped strings, the number grammar, and the depth and
/// element limits of `limits`. ParseJson builds its tree on it; a typed
/// decoder (JsonWire::ParseBatchRequest) drives it directly to read a
/// known schema without building one. Callers keep the structure:
/// they call CheckDepth before each value and CountElement before each
/// array item or object member, exactly as ParseJson does, so both
/// accept the same documents. Every Read* expects the value's first
/// byte at the cursor (call SkipWhitespace first). `text` and `limits`
/// must outlive the reader.
class JsonReader {
 public:
  JsonReader(std::string_view text, const JsonParseLimits& limits)
      : text_(text), limits_(limits) {}

  bool AtEnd() const { return pos_ >= text_.size(); }
  /// Precondition: !AtEnd().
  char Peek() const { return text_[pos_]; }

  void SkipWhitespace() {
    while (!AtEnd()) {
      char c = Peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  /// Consumes `c` if it is the next byte.
  bool Consume(char c) {
    if (AtEnd() || Peek() != c) return false;
    ++pos_;
    return true;
  }

  /// InvalidArgument naming the cursor's byte offset.
  Status Fail(const std::string& what) const;

  /// Fails once a value sits deeper than limits.max_depth (the
  /// document's top-level value has depth 0).
  Status CheckDepth(size_t depth) const {
    if (depth > limits_.max_depth) return FailDepth();
    return Status::OK();
  }

  /// Counts one array item or object member against
  /// limits.max_elements, across the whole document.
  Status CountElement() {
    if (++elements_ > limits_.max_elements) return FailElements();
    return Status::OK();
  }

  /// Consumes exactly `literal` ("true", "false", "null").
  Status ReadLiteral(std::string_view literal);

  /// Reads a string token, unescaping into *out (cleared first).
  /// Precondition: Peek() == '"'.
  Status ReadString(std::string* out);

  /// Reads a number token of the RFC 8259 grammar. The value is the
  /// correctly rounded double, independent of the process locale;
  /// magnitudes below the smallest subnormal read as a signed zero and
  /// magnitudes above DBL_MAX fail.
  Status ReadNumber(double* out);

  /// Reads a number that must be an integer in [0, max]. A plain digit
  /// run is converted directly; any other spelling ("1.0", "1e0", "-0")
  /// goes through ReadNumber and must hold an integral value. Fails
  /// naming `field` when the token is not a number or out of range.
  /// Precondition: max < 2^53 (every integer up to it is a double).
  Status ReadUint(std::string_view field, uint64_t max, uint64_t* out) {
    const size_t start = pos_;
    uint64_t value = 0;
    while (!AtEnd() && IsDigit(Peek())) {
      value = value * 10 + static_cast<uint64_t>(Peek() - '0');
      ++pos_;
    }
    const size_t digits = pos_ - start;
    // 19 digits cannot wrap a uint64_t; a leading zero ("01") and a
    // fraction or exponent are the shared grammar's to judge.
    if (digits == 0 || digits > 19 || (digits > 1 && text_[start] == '0') ||
        (!AtEnd() && (Peek() == '.' || Peek() == 'e' || Peek() == 'E'))) {
      pos_ = start;
      return ReadUintSlow(field, max, out);
    }
    if (value > max) return UintRangeError(field, max);
    *out = value;
    return Status::OK();
  }

  /// Reads `true` or `false`; fails naming `field` on anything else.
  Status ReadBool(std::string_view field, bool* out);

  /// The wire's integer check on a parsed number: `d` must be integral
  /// and in [0, max].
  static Status ToUint(double d, std::string_view field, uint64_t max,
                       uint64_t* out);

 private:
  static bool IsDigit(char c) { return c >= '0' && c <= '9'; }
  Status FailDepth() const;
  Status FailElements() const;
  Status ReadUintSlow(std::string_view field, uint64_t max, uint64_t* out);
  static Status UintRangeError(std::string_view field, uint64_t max);
  Status ReadHex4(uint32_t* out);

  std::string_view text_;
  const JsonParseLimits& limits_;
  size_t pos_ = 0;
  size_t elements_ = 0;
};

// ---- writer-side helpers (serializers append into one string) ----

/// Appends `s` as a quoted, escaped JSON string. Control characters go
/// out as \u00XX; bytes >= 0x80 are passed through (the wire format is
/// UTF-8 end to end).
void AppendJsonString(std::string* out, std::string_view s);

/// Appends the decimal digits of `v`.
inline void AppendJsonUint(std::string* out, uint64_t v) {
  char buf[20];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;  // 20 digits always fit a uint64_t
  out->append(buf, end);
}

/// Appends `v` with 10 significant digits: the bytes of printf "%.10g"
/// in the C locale, whatever the process locale. Exact for the integral
/// values the wire emits and plenty for scores and latency millis.
/// NaN and infinities, which JSON cannot spell, go out as 0.
void AppendJsonNumber(std::string* out, double v);

/// AppendJsonNumber into a fresh string.
std::string JsonNumber(double v);

}  // namespace hopi::net
