// Deterministic traffic: every request a run sends is a function of the
// run's seed, so two runs with the same seed offer the same load.
//   - batches: Zipf(s) (u, v) pairs over the element ids, as JSON bodies;
//   - the path query set: a fixed mix of cheap and expensive,
//     materializing and count_only expressions;
//   - the op stream the traced run replays: mostly insert_link /
//     insert_document with a small fixed share of delete_document,
//     generated with the ids an index assigns, so it stays valid when
//     applied in order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "collection/collection.h"
#include "engine/backend.h"
#include "engine/delta_overlay.h"

namespace perfbench {

using hopi::NodeId;
using hopi::engine::NodePair;

/// Delta size at which the traced run's overlay pool absorbs. Below
/// hopi_serve's --max_delta_ops default of 1024, so that a replayed
/// stream spans several absorb cycles.
inline constexpr size_t kAbsorbOps = 256;

/// One workload's server flags and offered load.
struct Workload {
  std::string name;
  std::vector<std::string> server_args;  ///< besides --port and --seed
  size_t workers = 2;                    ///< serving workers
  size_t io_threads = 1;
  size_t batch_pairs = 256;
  double batch_rate = 250.0;  ///< open-loop /v1/batch requests per second
  size_t open_connections = 2;
  /// Percentile reported as tail_us: the highest with about ten
  /// samples beyond it at one block's sample count.
  double tail_q = 0.99;
};

struct Batch {
  std::vector<NodePair> pairs;
  std::string body;
};

/// `count` batches of `pairs` Zipf(`zipf_s`)-ranked pairs over
/// [0, num_elements), all drawn from one stream seeded with `seed`.
std::vector<Batch> MakeBatches(uint64_t seed, uint64_t num_elements,
                               size_t count, size_t pairs, double zipf_s);

std::string BatchBody(const std::vector<NodePair>& pairs);

struct PathSpec {
  std::string expression;
  bool count_only = false;
  size_t max_matches = 1000;
  std::string body;
};

/// The fixed `path` query set (independent of the seed).
std::vector<PathSpec> PathSet();

/// Share of each op kind in the op stream, in percent. There is no
/// delete_link: one Sec 6 link deletion took 1 to 29 s at 1,000
/// documents, which would stall the traced run (and, in a server,
/// every request behind it on the IO thread).
struct OpMix {
  int insert_link = 60;
  int insert_document = 36;
  int delete_document = 4;
};

/// `count` ops valid against `base` when applied in order.
std::vector<hopi::engine::Mutation> MakeOpStream(
    const hopi::collection::Collection& base, uint64_t seed, size_t count,
    const OpMix& mix);

}  // namespace perfbench
