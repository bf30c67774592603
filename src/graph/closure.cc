#include "graph/closure.h"

#include <algorithm>
#include <cassert>
#include <deque>

#include "graph/scc.h"
#include "graph/traversal.h"

namespace hopi {

Result<TransitiveClosure> TransitiveClosure::Build(
    const Digraph& g, std::optional<uint64_t> max_connections) {
  const size_t n = g.NumNodes();
  TransitiveClosure tc;
  tc.desc_.assign(n, DynamicBitset(n));
  tc.anc_.assign(n, DynamicBitset(n));

  // Compute descendant rows over the condensation in reverse topological
  // order: row(v) = union of row(children) | children. Handles cycles.
  Condensation cond = Condense(g);
  std::vector<NodeId> order;
  bool is_dag = TopologicalSort(cond.dag, &order);
  assert(is_dag);
  (void)is_dag;

  // SCC-level descendant rows (over SCC ids).
  const size_t m = cond.dag.NumNodes();
  std::vector<DynamicBitset> scc_desc(m, DynamicBitset(m));
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    NodeId c = *it;
    for (NodeId d : cond.dag.OutNeighbors(c)) {
      scc_desc[c].Set(d);
      scc_desc[c].UnionWith(scc_desc[d]);
    }
  }

  // Expand to element-level rows. Members of an SCC of size > 1 (or with a
  // self-loop) are all descendants of each other.
  for (NodeId v = 0; v < n; ++v) {
    uint32_t c = cond.component[v];
    bool cyclic = cond.members[c].size() > 1 || g.HasEdge(v, v);
    if (cyclic) {
      for (NodeId w : cond.members[c]) {
        if (w != v) tc.desc_[v].Set(w);
      }
    }
    scc_desc[c].ForEach([&](size_t d) {
      for (NodeId w : cond.members[static_cast<uint32_t>(d)]) {
        if (w != v) tc.desc_[v].Set(w);
      }
    });
    tc.num_connections_ += tc.desc_[v].Count();
    if (max_connections && tc.num_connections_ > *max_connections) {
      return Status::OutOfBudget("transitive closure exceeds cap of " +
                                 std::to_string(*max_connections) +
                                 " connections");
    }
  }

  // Ancestor rows by transposition.
  for (NodeId u = 0; u < n; ++u) {
    tc.desc_[u].ForEach([&](size_t v) {
      tc.anc_[v].Set(u);
    });
  }
  return tc;
}

uint64_t TransitiveClosure::CountConnections(const Digraph& g) {
  // One BFS per node; keeps only a seen-array alive.
  uint64_t total = 0;
  const size_t n = g.NumNodes();
  std::vector<uint32_t> seen(n, UINT32_MAX);
  std::deque<NodeId> queue;
  for (NodeId s = 0; s < n; ++s) {
    queue.clear();
    queue.push_back(s);
    seen[s] = s;
    while (!queue.empty()) {
      NodeId v = queue.front();
      queue.pop_front();
      for (NodeId w : g.OutNeighbors(v)) {
        if (seen[w] != s) {
          seen[w] = s;
          queue.push_back(w);
          ++total;  // counts (s, w), w != s by seen[s] pre-mark
        }
      }
    }
  }
  return total;
}

size_t TransitiveClosure::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& row : desc_) bytes += row.MemoryBytes();
  for (const auto& row : anc_) bytes += row.MemoryBytes();
  return bytes;
}

IncrementalClosure::IncrementalClosure(size_t num_nodes) {
  EnsureNodes(num_nodes);
}

void IncrementalClosure::EnsureNodes(size_t n) {
  if (desc_.size() < n) {
    desc_.resize(n);
    anc_.resize(n);
  }
}

uint64_t IncrementalClosure::AddEdge(NodeId u, NodeId v) {
  assert(u < desc_.size() && v < desc_.size());
  if (u == v || desc_[u].Test(v)) return 0;

  // New connections: ({u} ∪ Anc(u)) × ({v} ∪ Desc(v)) minus existing ones.
  // Gather the affected source set first; anc_[u] is mutated in the loop.
  std::vector<NodeId> sources = anc_[u].ToVector();
  sources.push_back(u);
  std::vector<NodeId> targets = desc_[v].ToVector();
  targets.push_back(v);

  uint64_t added = 0;
  for (NodeId a : sources) {
    for (NodeId d : targets) {
      if (a == d) continue;  // cycle closed: no self-connection stored
      if (desc_[a].Set(d)) {
        anc_[d].Set(a);
        ++added;
      }
    }
  }
  num_connections_ += added;
  return added;
}

size_t IncrementalClosure::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& row : desc_) bytes += row.MemoryBytes();
  for (const auto& row : anc_) bytes += row.MemoryBytes();
  return bytes;
}

DistanceClosure DistanceClosure::Build(const Digraph& g) {
  DistanceClosure dc;
  const size_t n = g.NumNodes();
  dc.rows_.resize(n);
  dc.reverse_rows_.resize(n);
  for (NodeId s = 0; s < n; ++s) {
    std::vector<uint32_t> dist = BfsDistances(g, s);
    auto& row = dc.rows_[s];
    for (NodeId v = 0; v < n; ++v) {
      if (v != s && dist[v] != kUnreachable) {
        row.push_back({v, dist[v]});
      }
    }
    dc.num_connections_ += row.size();
  }
  for (NodeId s = 0; s < n; ++s) {
    for (const DistConnection& c : dc.rows_[s]) {
      dc.reverse_rows_[c.node].push_back({s, c.dist});
    }
  }
  for (auto& row : dc.reverse_rows_) {
    std::sort(row.begin(), row.end(),
              [](const DistConnection& a, const DistConnection& b) {
                return a.node < b.node;
              });
  }
  return dc;
}

std::optional<uint32_t> DistanceClosure::Dist(NodeId u, NodeId v) const {
  if (u == v) return 0;
  const auto& row = rows_[u];
  auto it = std::lower_bound(row.begin(), row.end(), v,
                             [](const DistConnection& c, NodeId id) {
                               return c.node < id;
                             });
  if (it == row.end() || it->node != v) return std::nullopt;
  return it->dist;
}

void DistanceClosure::DistBatch(std::span<const NodeId> us,
                                std::span<const NodeId> vs,
                                std::span<uint32_t> out) const {
  assert(us.size() == vs.size() && us.size() == out.size());
  // What a lane with nothing to search (u == v, or an empty row) probes:
  // a one-entry row that matches no node.
  static constexpr DistConnection kNoRow{kInvalidNode, kUnreachable};
  constexpr size_t kLanes = kDistBatchLanes;
  const DistConnection* base[kLanes];
  const DistConnection* last[kLanes];
  size_t len[kLanes];
  for (size_t first = 0; first < us.size(); first += kLanes) {
    const size_t lanes = std::min(kLanes, us.size() - first);
    size_t longest = 1;
    for (size_t l = 0; l < lanes; ++l) {
      const auto& row = rows_[us[first + l]];
      const bool search = us[first + l] != vs[first + l] && !row.empty();
      base[l] = search ? row.data() : &kNoRow;
      len[l] = search ? row.size() : 1;
      last[l] = base[l] + len[l] - 1;
      longest = std::max(longest, len[l]);
    }
    // Lower bound by halving: the first entry >= v stays in [base,
    // base + len]. Every lane's len shrinks by the same rule, so the
    // longest row sets the step count and shorter lanes idle at len 1.
    while (longest > 1) {
      for (size_t l = 0; l < lanes; ++l) {
        const size_t half = len[l] / 2;
        base[l] = base[l][half].node < vs[first + l] ? base[l] + half
                                                      : base[l];
        len[l] -= half;
        __builtin_prefetch(base[l] + len[l] / 2);
      }
      longest -= longest / 2;
    }
    for (size_t l = 0; l < lanes; ++l) {
      const NodeId v = vs[first + l];
      const DistConnection* hit =
          base[l]->node < v && base[l] != last[l] ? base[l] + 1 : base[l];
      out[first + l] = us[first + l] == v ? 0
                       : hit->node == v   ? hit->dist
                                          : kUnreachable;
    }
  }
}

}  // namespace hopi
