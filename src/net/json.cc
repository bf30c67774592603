#include "net/json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <system_error>

namespace hopi::net {
namespace {

/// Decimal exponent of the leading significant digit of a number span
/// that passed the JSON grammar (1.5e3 -> 3, 0.02 -> -2), saturating
/// far beyond any double's range. Only called for spans holding a
/// non-zero digit.
int64_t LeadingDigitExponent(std::string_view number) {
  constexpr int64_t kSaturate = int64_t{1} << 40;
  size_t i = number[0] == '-' ? 1 : 0;
  int64_t lead = 0;
  if (number[i] != '0') {
    size_t begin = i;
    while (i < number.size() && number[i] >= '0' && number[i] <= '9') ++i;
    lead = static_cast<int64_t>(i - begin) - 1;
  } else {
    ++i;  // the lone integer zero; the first non-zero digit is a fraction digit
    lead = -1;
    if (i < number.size() && number[i] == '.') {
      for (++i; i < number.size() && number[i] == '0'; ++i) --lead;
    }
  }
  while (i < number.size() && number[i] != 'e' && number[i] != 'E') ++i;
  if (i == number.size()) return lead;
  ++i;
  bool negative = number[i] == '-';
  if (number[i] == '-' || number[i] == '+') ++i;
  int64_t exponent = 0;
  for (; i < number.size(); ++i) {
    exponent = std::min(kSaturate, exponent * 10 + (number[i] - '0'));
  }
  return negative ? lead - exponent : lead + exponent;
}

void AppendUtf8(std::string* out, uint32_t cp) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Recursive-descent tree builder over a JsonReader.
class Parser {
 public:
  Parser(std::string_view text, const JsonParseLimits& limits)
      : in_(text, limits) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    HOPI_RETURN_NOT_OK(ParseValue(0, &value));
    in_.SkipWhitespace();
    if (!in_.AtEnd()) return in_.Fail("trailing bytes after the JSON document");
    return value;
  }

 private:
  Status ParseValue(size_t depth, JsonValue* out) {
    HOPI_RETURN_NOT_OK(in_.CheckDepth(depth));
    in_.SkipWhitespace();
    if (in_.AtEnd()) return in_.Fail("unexpected end of input");
    switch (in_.Peek()) {
      case '{':
        return ParseObject(depth, out);
      case '[':
        return ParseArray(depth, out);
      case '"': {
        std::string s;
        HOPI_RETURN_NOT_OK(in_.ReadString(&s));
        *out = JsonValue(std::move(s));
        return Status::OK();
      }
      case 't':
        HOPI_RETURN_NOT_OK(in_.ReadLiteral("true"));
        *out = JsonValue(true);
        return Status::OK();
      case 'f':
        HOPI_RETURN_NOT_OK(in_.ReadLiteral("false"));
        *out = JsonValue(false);
        return Status::OK();
      case 'n':
        HOPI_RETURN_NOT_OK(in_.ReadLiteral("null"));
        *out = JsonValue(nullptr);
        return Status::OK();
      default: {
        double d = 0;
        HOPI_RETURN_NOT_OK(in_.ReadNumber(&d));
        *out = JsonValue(d);
        return Status::OK();
      }
    }
  }

  Status ParseObject(size_t depth, JsonValue* out) {
    in_.Consume('{');
    JsonValue::Object members;
    in_.SkipWhitespace();
    if (in_.Consume('}')) {
      *out = JsonValue(std::move(members));
      return Status::OK();
    }
    while (true) {
      in_.SkipWhitespace();
      if (in_.AtEnd() || in_.Peek() != '"') {
        return in_.Fail("expected object key string");
      }
      std::string key;
      HOPI_RETURN_NOT_OK(in_.ReadString(&key));
      for (const auto& [existing, _] : members) {
        if (existing == key) {
          return in_.Fail("duplicate object key '" + key + "'");
        }
      }
      in_.SkipWhitespace();
      if (!in_.Consume(':')) return in_.Fail("expected ':' after key");
      JsonValue value;
      HOPI_RETURN_NOT_OK(in_.CountElement());
      HOPI_RETURN_NOT_OK(ParseValue(depth + 1, &value));
      members.emplace_back(std::move(key), std::move(value));
      in_.SkipWhitespace();
      if (in_.AtEnd()) return in_.Fail("unterminated object");
      if (in_.Consume(',')) continue;
      if (in_.Consume('}')) {
        *out = JsonValue(std::move(members));
        return Status::OK();
      }
      return in_.Fail("expected ',' or '}' in object");
    }
  }

  Status ParseArray(size_t depth, JsonValue* out) {
    in_.Consume('[');
    JsonValue::Array items;
    in_.SkipWhitespace();
    if (in_.Consume(']')) {
      *out = JsonValue(std::move(items));
      return Status::OK();
    }
    while (true) {
      JsonValue value;
      HOPI_RETURN_NOT_OK(in_.CountElement());
      HOPI_RETURN_NOT_OK(ParseValue(depth + 1, &value));
      items.push_back(std::move(value));
      in_.SkipWhitespace();
      if (in_.AtEnd()) return in_.Fail("unterminated array");
      if (in_.Consume(',')) continue;
      if (in_.Consume(']')) {
        *out = JsonValue(std::move(items));
        return Status::OK();
      }
      return in_.Fail("expected ',' or ']' in array");
    }
  }

  JsonReader in_;
};

}  // namespace

Status JsonReader::Fail(const std::string& what) const {
  return Status::InvalidArgument("JSON error at byte " + std::to_string(pos_) +
                                 ": " + what);
}

Status JsonReader::FailDepth() const {
  return Fail("nesting deeper than " + std::to_string(limits_.max_depth));
}

Status JsonReader::FailElements() const {
  return Status::InvalidArgument("JSON error: document exceeds " +
                                 std::to_string(limits_.max_elements) +
                                 " container elements");
}

Status JsonReader::ReadLiteral(std::string_view literal) {
  if (text_.substr(pos_, literal.size()) != literal) {
    return Fail("expected '" + std::string(literal) + "'");
  }
  pos_ += literal.size();
  return Status::OK();
}

Status JsonReader::ReadBool(std::string_view field, bool* out) {
  if (!AtEnd() && Peek() == 't') {
    HOPI_RETURN_NOT_OK(ReadLiteral("true"));
    *out = true;
    return Status::OK();
  }
  if (!AtEnd() && Peek() == 'f') {
    HOPI_RETURN_NOT_OK(ReadLiteral("false"));
    *out = false;
    return Status::OK();
  }
  return Status::InvalidArgument(std::string(field) + " must be a boolean");
}

Status JsonReader::ReadHex4(uint32_t* out) {
  if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    int d = HexDigit(text_[pos_ + i]);
    if (d < 0) return Fail("bad hex digit in \\u escape");
    value = value * 16 + static_cast<uint32_t>(d);
  }
  pos_ += 4;
  *out = value;
  return Status::OK();
}

Status JsonReader::ReadString(std::string* out) {
  ++pos_;  // '"'
  out->clear();
  while (true) {
    if (AtEnd()) return Fail("unterminated string");
    unsigned char c = static_cast<unsigned char>(text_[pos_]);
    if (c == '"') {
      ++pos_;
      return Status::OK();
    }
    if (c < 0x20) return Fail("raw control character in string");
    if (c != '\\') {
      out->push_back(static_cast<char>(c));
      ++pos_;
      continue;
    }
    ++pos_;  // '\'
    if (AtEnd()) return Fail("truncated escape");
    char e = text_[pos_++];
    switch (e) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        uint32_t cp = 0;
        HOPI_RETURN_NOT_OK(ReadHex4(&cp));
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          // High surrogate: must be followed by \uDC00..\uDFFF.
          if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
              text_[pos_ + 1] != 'u') {
            return Fail("lone high surrogate");
          }
          pos_ += 2;
          uint32_t low = 0;
          HOPI_RETURN_NOT_OK(ReadHex4(&low));
          if (low < 0xDC00 || low > 0xDFFF) return Fail("bad low surrogate");
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
          return Fail("lone low surrogate");
        }
        AppendUtf8(out, cp);
        break;
      }
      default:
        return Fail("invalid escape character");
    }
  }
}

Status JsonReader::ReadNumber(double* out) {
  const size_t start = pos_;
  Consume('-');
  // int part: 0 | [1-9][0-9]*
  if (AtEnd() || !IsDigit(Peek())) return Fail("invalid number");
  if (!Consume('0')) {
    while (!AtEnd() && IsDigit(Peek())) ++pos_;
  }
  if (Consume('.')) {
    if (AtEnd() || !IsDigit(Peek())) return Fail("digits required after '.'");
    while (!AtEnd() && IsDigit(Peek())) ++pos_;
  }
  if (Consume('e') || Consume('E')) {
    if (!Consume('+')) Consume('-');
    if (AtEnd() || !IsDigit(Peek())) return Fail("digits required in exponent");
    while (!AtEnd() && IsDigit(Peek())) ++pos_;
  }
  // The span passed the grammar, which from_chars reads in full;
  // unlike strtod it ignores the locale's decimal separator.
  const std::string_view span = text_.substr(start, pos_ - start);
  double value = 0;
  auto [end, ec] =
      std::from_chars(span.data(), span.data() + span.size(), value);
  if (ec == std::errc::result_out_of_range) {
    // from_chars leaves `value` alone out of range; strtod's answer was
    // a signed zero below the subnormals and infinity above DBL_MAX.
    if (LeadingDigitExponent(span) >= 0) return Fail("number overflows double");
    value = span[0] == '-' ? -0.0 : 0.0;
  } else if (ec != std::errc() || end != span.data() + span.size()) {
    return Fail("invalid number");
  }
  *out = value;
  return Status::OK();
}

Status JsonReader::ToUint(double d, std::string_view field, uint64_t max,
                          uint64_t* out) {
  if (d < 0 || d > static_cast<double>(max) || d != std::floor(d)) {
    return UintRangeError(field, max);
  }
  *out = static_cast<uint64_t>(d);
  return Status::OK();
}

Status JsonReader::UintRangeError(std::string_view field, uint64_t max) {
  return Status::InvalidArgument(std::string(field) +
                                 " must be an integer in [0, " +
                                 std::to_string(max) + "]");
}

Status JsonReader::ReadUintSlow(std::string_view field, uint64_t max,
                                uint64_t* out) {
  if (AtEnd() || (Peek() != '-' && !IsDigit(Peek()))) {
    return Status::InvalidArgument(std::string(field) + " must be a number");
  }
  double d = 0;
  HOPI_RETURN_NOT_OK(ReadNumber(&d));
  return ToUint(d, field, max, out);
}

Result<JsonValue> ParseJson(std::string_view text,
                            const JsonParseLimits& limits) {
  return Parser(text, limits).Parse();
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

void AppendJsonNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {  // JSON has no NaN/Inf
    out->push_back('0');
    return;
  }
  // The standard defines general/precision 10 as printf's "%.10g" in
  // the C locale; 32 bytes hold its longest output (-d.ddddddddde-308).
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 10);
  (void)ec;
  out->append(buf, end);
}

std::string JsonNumber(double v) {
  std::string out;
  AppendJsonNumber(&out, v);
  return out;
}

}  // namespace hopi::net
