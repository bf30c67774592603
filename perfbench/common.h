// Shared helpers of the benchmark driver: the steady clock, exact
// percentiles over kept samples, and a small ordered JSON writer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/json.h"

namespace perfbench {

/// Microseconds on the steady clock (arbitrary epoch).
inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Exact percentile with linear interpolation between order statistics
/// (the "inclusive" definition: q = 0 is the minimum, q = 1 the maximum).
/// Every sample is kept, so no bucketing error enters. 0 when empty.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Builds one JSON object with fields in insertion order.
class JsonObject {
 public:
  JsonObject& Num(std::string_view key, double value) {
    Key(key);
    out_ += hopi::net::JsonNumber(value);
    return *this;
  }
  JsonObject& Str(std::string_view key, std::string_view value) {
    Key(key);
    hopi::net::AppendJsonString(&out_, value);
    return *this;
  }
  JsonObject& Bool(std::string_view key, bool value) {
    Key(key);
    out_ += value ? "true" : "false";
    return *this;
  }
  /// `json` must already be valid JSON text.
  JsonObject& Raw(std::string_view key, std::string_view json) {
    Key(key);
    out_ += json;
    return *this;
  }
  std::string Finish() const { return out_ + "}"; }

 private:
  void Key(std::string_view key) {
    out_ += out_.size() > 1 ? "," : "";
    hopi::net::AppendJsonString(&out_, key);
    out_ += ':';
  }
  std::string out_ = "{";
};

/// Counts checked answers and failed checks (non-200, transport error,
/// malformed or wrong answer); the first few failures go to stderr.
struct Gate {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Fail(const std::string& why);
};

/// {"value": v, "unit": u} — one metric of the result line.
inline std::string Metric(double value, std::string_view unit) {
  return JsonObject().Num("value", value).Str("unit", unit).Finish();
}

}  // namespace perfbench
