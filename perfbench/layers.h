// The traced run: per-layer numbers from calls into each src/ module's
// public functions, made from here after the load phases (nothing is
// traced inside src/).
//
// Sampled requests — open-loop /v1/batch requests at a fixed stride
// (at least every other one), up to TraceInput::samples of them — are
// replayed through the layers in request order; each call becomes a
// span (name, start, end, parent, request id) kept in memory and
// written to a JSON-lines file when the run ends. The HTTP round trip
// of the same request, measured against the real server during the
// load, is the root span. The children are separate in-process
// executions, run on the CPU the server was pinned to (the server is
// idle by then), so a self time can still come out negative:
//
//   http.round_trip                 the request on the workload's server
//   ├─ net.http_parse               HttpParser::Feed + Next on its bytes
//   ├─ net.json_decode              JsonWire::ParseBatchRequest
//   ├─ engine_pool.batch            EnginePool::Batch, private pool
//   │  └─ engine.batch              QueryEngine::Batch, private engine
//   │     ├─ engine.label_fetch     backend BorrowOutJoin / BorrowInJoin
//   │     └─ twohop.join            JoinViews over the fetched views
//   └─ net.serialize                JsonWire::SerializeBatchResponse +
//                                   SerializeResponse
//
// Self time = a span's duration minus its children's. Medians of the
// self times over the sampled requests split the round trip:
// split.net_us, engine_pool.lane_wait_us (the pool span's self time),
// split.engine_us, split.twohop_us and net.socket_residual_us (the
// root's self time: socket, epoll, scheduling, everything no in-process
// stage accounts for). The remaining layers (overlay, hopi maintenance,
// query, partition/cover build, shard) are driven from the same seed's
// traffic on every workload, so each metric means the same thing
// everywhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "collection/collection.h"
#include "common.h"
#include "loadgen.h"
#include "traffic.h"

namespace perfbench {

struct TraceInput {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double zipf_s = 1.1;
  const hopi::collection::Collection* base = nullptr;
  uint16_t port = 0;  ///< the serving process (for the path tail phase)
  int client_cpu = -1;  ///< CPU the load threads are pinned to
  /// CPU the server was pinned to: the replays run there.
  int server_cpu = -1;
  std::string trace_path;
  /// The op stream replayed through the overlay pool and Sec 6
  /// maintenance, and the ops per second it is scheduled at.
  const std::vector<hopi::engine::Mutation>* ops = nullptr;
  double op_rate = 0.0;
  /// Open-loop batch requests and their bodies; empty on path, where a
  /// short batch phase is sent after the timed phases instead.
  const Phase* open_reads = nullptr;
  const std::vector<Batch>* open_batches = nullptr;
  const std::vector<PathSpec>* path_set = nullptr;
  size_t samples = 64;
};

/// The per-layer metrics object of the result line (every per-layer
/// metric, with units).
std::string TraceLayers(const TraceInput& in, Gate* gate);

}  // namespace perfbench
