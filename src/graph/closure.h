// Transitive closure: materialized, counting-only, incremental, and
// distance-annotated variants.
//
// The paper's algorithms consume the reflexive+transitive closure C(G).
// We materialize the *non-reflexive* connection set {(u,v) : u != v,
// u ->* v}; reflexive pairs are implicit (every query layer treats u == v
// as connected), matching HOPI's storage rule of never putting a node in
// its own label (paper Sec 3.4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/bitset.h"
#include "graph/digraph.h"
#include "util/result.h"

namespace hopi {

/// Materialized closure with per-source descendant rows (bitsets) and
/// per-target ancestor rows.
class TransitiveClosure {
 public:
  /// Computes the closure of `g`. If `max_connections` is set and the
  /// connection count would exceed it, returns OutOfBudget — this is the
  /// in-memory cap that drives HOPI's partitioning.
  static Result<TransitiveClosure> Build(
      const Digraph& g,
      std::optional<uint64_t> max_connections = std::nullopt);

  /// Counts connections of `g` without keeping more than one row alive.
  static uint64_t CountConnections(const Digraph& g);

  size_t NumNodes() const { return desc_.size(); }
  uint64_t NumConnections() const { return num_connections_; }

  /// True iff u ->* v. Reflexive: Contains(u, u) is always true.
  bool Contains(NodeId u, NodeId v) const {
    return u == v || desc_[u].Test(v);
  }

  const DynamicBitset& DescendantsRow(NodeId u) const { return desc_[u]; }
  const DynamicBitset& AncestorsRow(NodeId v) const { return anc_[v]; }

  /// Strict descendants of u (excluding u), sorted.
  std::vector<NodeId> Descendants(NodeId u) const {
    return desc_[u].ToVector();
  }
  /// Strict ancestors of v (excluding v), sorted.
  std::vector<NodeId> Ancestors(NodeId v) const { return anc_[v].ToVector(); }

  /// Approximate heap bytes of the row storage.
  size_t MemoryBytes() const;

 private:
  std::vector<DynamicBitset> desc_;
  std::vector<DynamicBitset> anc_;
  uint64_t num_connections_ = 0;
};

/// Incrementally maintained closure under node/edge additions.
///
/// Used by the TC-size-aware partitioner (paper Sec 4.3): documents are
/// added to a partition one by one and the partition is closed when the
/// closure reaches the memory budget.
class IncrementalClosure {
 public:
  explicit IncrementalClosure(size_t num_nodes = 0);

  /// Grows the node universe to at least n nodes.
  void EnsureNodes(size_t n);
  size_t NumNodes() const { return desc_.size(); }

  /// Adds edge u->v and transitively closes. Returns the number of new
  /// connections created (0 if (u,v) was already connected or u == v).
  uint64_t AddEdge(NodeId u, NodeId v);

  uint64_t NumConnections() const { return num_connections_; }
  bool Contains(NodeId u, NodeId v) const {
    return u == v || desc_[u].Test(v);
  }

  const DynamicBitset& DescendantsRow(NodeId u) const { return desc_[u]; }
  const DynamicBitset& AncestorsRow(NodeId v) const { return anc_[v]; }

  size_t MemoryBytes() const;

 private:
  std::vector<DynamicBitset> desc_;  // strict descendants
  std::vector<DynamicBitset> anc_;   // strict ancestors
  uint64_t num_connections_ = 0;
};

/// A connection annotated with its shortest-path length.
struct DistConnection {
  NodeId node;
  uint32_t dist;

  friend bool operator==(const DistConnection& a, const DistConnection& b) {
    return a.node == b.node && a.dist == b.dist;
  }
};

/// All-pairs shortest distances restricted to connected pairs, stored as
/// per-source sorted (target, dist) vectors. Input to the distance-aware
/// cover construction (paper Sec 5.2).
class DistanceClosure {
 public:
  static DistanceClosure Build(const Digraph& g);

  size_t NumNodes() const { return rows_.size(); }
  uint64_t NumConnections() const { return num_connections_; }

  /// Shortest distance u -> v, or nullopt when unconnected. Dist(u,u)==0.
  std::optional<uint32_t> Dist(NodeId u, NodeId v) const;

  /// Lookups DistBatch keeps in flight at once (on the 1,000-doc cover
  /// build's seeding, 8 measured slower and 32 no faster).
  static constexpr size_t kDistBatchLanes = 16;

  /// out[k] = Dist(us[k], vs[k]) for every k, with kUnreachable for an
  /// unconnected pair. Same answers as Dist, faster on a batch: lookups
  /// run kDistBatchLanes at a time as branchless binary searches over
  /// their rows, stepped in lockstep, and every step prefetches the
  /// lane's next probe, so the lanes' cache misses overlap instead of
  /// queueing one after another. The three spans have equal length.
  void DistBatch(std::span<const NodeId> us, std::span<const NodeId> vs,
                 std::span<uint32_t> out) const;

  /// Strict descendants of u with distances, sorted by node id.
  const std::vector<DistConnection>& Row(NodeId u) const { return rows_[u]; }

  /// Strict ancestors of v with distances, sorted by node id.
  const std::vector<DistConnection>& ReverseRow(NodeId v) const {
    return reverse_rows_[v];
  }

 private:
  std::vector<std::vector<DistConnection>> rows_;
  std::vector<std::vector<DistConnection>> reverse_rows_;
  uint64_t num_connections_ = 0;
};

}  // namespace hopi
