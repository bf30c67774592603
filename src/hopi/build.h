// Index construction pipeline (paper Sec 3.3 + Sec 4).
//
// Orchestrates: document-level partitioning -> per-partition 2-hop covers
// (optionally with preselected link-target centers, Sec 4.2) -> cover
// joining (old incremental or new recursive algorithm). A non-partitioned
// "global" mode computes one cover for the whole element-level graph (the
// paper's 45-hour baseline — only feasible for small collections).
#pragma once

#include <cstddef>
#include <cstdint>

#include "collection/collection.h"
#include "hopi/index.h"
#include "hopi/join.h"
#include "partition/partitioner.h"
#include "twohop/builder.h"
#include "util/result.h"

namespace hopi {

enum class JoinAlgorithm {
  kIncremental,  // Sec 3.3 (EDBT 2004) — the paper's baseline
  kRecursive,    // Sec 4.1 — the new PSG-based algorithm
};

struct IndexBuildOptions {
  /// Partitioning strategy and caps (ignored when `global`).
  partition::PartitionOptions partition;
  JoinAlgorithm join = JoinAlgorithm::kRecursive;
  /// Sec 4.2: preselect cross-partition link targets as center nodes when
  /// building partition covers.
  bool preselect_link_targets = false;
  /// Sec 5: build a distance-aware index.
  bool with_distance = false;
  /// Skip partitioning entirely (one global cover).
  bool global = false;
  /// Sec 4.1: recursively partition the PSG when it exceeds this many
  /// nodes (0 = always traverse it whole).
  uint64_t psg_partition_cap = 0;
  /// Total thread budget for the covers phase. Partition covers are
  /// independent ("all these computations can be done concurrently",
  /// Sec 4.1). A partition holding at least 1/num_threads of the
  /// elements is built in turn on the calling thread, largest first,
  /// with the whole budget inside its cover build (parallel distance
  /// closure and priority seeding; the greedy loop stays sequential).
  /// The other partitions run across a pool of num_threads workers, one
  /// thread each. In `global` mode the whole budget goes to the one
  /// cover build. The built index is identical for every value.
  size_t num_threads = 1;
};

struct IndexBuildStats {
  double partition_seconds = 0.0;
  double covers_seconds = 0.0;
  double join_seconds = 0.0;
  double total_seconds = 0.0;
  uint64_t num_partitions = 0;
  size_t num_threads = 0;          // thread budget the covers phase had
  uint64_t partitions_in_turn = 0; // built on the calling thread with the
                                   // whole budget (see num_threads above)
  uint64_t cross_links = 0;
  uint64_t cover_entries = 0;  // |L| of the final cover
  uint64_t total_partition_connections = 0;  // sum of partition |T|
  uint64_t largest_partition_connections = 0;
  // Summed over partitions, so with concurrent partition builds its
  // closure/seed/greedy seconds add up to more than covers_seconds.
  twohop::CoverBuildStats cover_build;
  JoinStats join_stats;
};

/// Builds a HOPI index over the collection's live documents.
Result<HopiIndex> BuildIndex(collection::Collection* collection,
                             const IndexBuildOptions& options = {},
                             IndexBuildStats* stats = nullptr);

}  // namespace hopi
