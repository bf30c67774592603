// Load generation over real sockets: open-loop (requests scheduled at a
// fixed rate, latency timed from the scheduled send so queueing behind
// a slow response is charged to the request) and closed-loop (each
// connection sends its next request when the previous answer lands).
// One thread and one keep-alive connection per load connection; every
// request's timings and answer are kept for exact percentiles and for
// the correctness gate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

struct Record {
  size_t id = 0;       ///< seq * connections + conn; names the request
  int status = 0;      ///< HTTP status; 0 = transport error
  double scheduled_us = 0.0;  ///< phase-relative; = sent_us in closed loop
  double sent_us = 0.0;
  double done_us = 0.0;
  std::string body;    ///< response body

  double latency_us() const { return done_us - scheduled_us; }
  double rtt_us() const { return done_us - sent_us; }
  double lateness_us() const { return sent_us - scheduled_us; }
};

struct Phase {
  std::vector<Record> records;  ///< sorted by id
  double elapsed_s = 0.0;       ///< phase start to the last answer
};

struct LoadSpec {
  uint16_t port = 0;
  std::string target;  ///< e.g. "/v1/batch"
  size_t connections = 1;
  double seconds = 1.0;
  /// Total offered requests per second across connections; 0 = closed
  /// loop.
  double rate = 0.0;
  /// Closed loop only: each connection keeps going past the deadline
  /// until it has sent a whole number of cycles of this many requests.
  size_t cycle = 0;
  /// Request body for a request id. Called from the load threads; must
  /// be thread-safe and return a reference that stays valid.
  std::function<const std::string&(size_t id)> body;
  /// CPU every load thread is pinned to; unpinned when < 0.
  int cpu = -1;
};

Phase RunLoad(const LoadSpec& spec);

/// Pins the calling thread (and what it forks) to one CPU.
void PinToCpu(int cpu);

/// The exact bytes BlockingHttpClient writes for a POST of `body` —
/// what the server's parser saw for a recorded request.
std::string HttpRequestBytes(const std::string& target,
                             const std::string& body);

}  // namespace perfbench
