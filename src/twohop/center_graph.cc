#include "twohop/center_graph.h"

#include <algorithm>
#include <cassert>

namespace hopi::twohop {

void BipartiteGraph::Reset(uint32_t num_in, uint32_t num_out) {
  num_in_ = num_in;
  num_out_ = num_out;
  in_edges_.clear();
  in_offsets_.assign(num_in + 1, 0);
  in_started_ = 0;
  sealed_ = false;
}

void BipartiteGraph::FillOutSide() const {
  const size_t num_edges = in_edges_.size();
  while (in_started_ <= num_in_) in_offsets_[in_started_++] = num_edges;
  // Offsets: out_offsets_[j + 1] counts out-vertex j, then prefix sums.
  out_offsets_.assign(num_out_ + 1, 0);
  for (uint32_t j : in_edges_) ++out_offsets_[j + 1];
  for (uint32_t j = 0; j < num_out_; ++j) {
    out_offsets_[j + 1] += out_offsets_[j];
  }
  // Scatter in in-vertex order, so each out-vertex's list is ascending.
  out_edges_.resize(num_edges);
  for (uint32_t i = 0; i < num_in_; ++i) {
    for (size_t e = in_offsets_[i]; e < in_offsets_[i + 1]; ++e) {
      out_edges_[out_offsets_[in_edges_[e]]++] = i;
    }
  }
  // The scatter advanced every offset to its successor's start: shift
  // them back by one slot.
  for (uint32_t j = num_out_; j > 0; --j) out_offsets_[j] = out_offsets_[j - 1];
  out_offsets_[0] = 0;
  sealed_ = true;
}

DensestSubgraph ApproxDensestSubgraph(const BipartiteGraph& g) {
  const uint32_t n_in = g.NumIn();
  const uint32_t n_out = g.NumOut();
  const uint32_t n = n_in + n_out;  // unified vertex ids: out offset by n_in

  std::vector<uint32_t> degree(n, 0);
  for (uint32_t i = 0; i < n_in; ++i) {
    degree[i] = static_cast<uint32_t>(g.InAdj(i).size());
  }
  for (uint32_t j = 0; j < n_out; ++j) {
    degree[n_in + j] = static_cast<uint32_t>(g.OutAdj(j).size());
  }

  // Bucket queue over degrees; degree can only decrease, so a cursor that
  // moves up and resets downward yields overall O(V + E).
  uint32_t max_deg = 0;
  for (uint32_t d : degree) max_deg = std::max(max_deg, d);
  std::vector<std::vector<uint32_t>> buckets(max_deg + 1);
  std::vector<bool> removed(n, false);
  uint32_t live = 0;
  for (uint32_t v = 0; v < n; ++v) {
    if (degree[v] == 0) {
      removed[v] = true;  // isolated vertices are not part of CG_w
    } else {
      buckets[degree[v]].push_back(v);
      ++live;
    }
  }

  DensestSubgraph best;
  if (live == 0) return best;

  uint64_t edges = g.NumEdges();
  double best_density = -1.0;
  uint32_t best_step = 0;  // number of removals at the best snapshot

  std::vector<uint32_t> removal_order;
  removal_order.reserve(live);

  // Snapshot 0: the full graph.
  best_density = static_cast<double>(edges) / live;
  uint32_t steps = 0;

  uint32_t cursor = 1;
  std::vector<uint32_t> cur_degree = degree;  // mutated during peeling
  while (live > 0) {
    // Find a live vertex of minimum degree (lazy bucket entries are
    // skipped when their recorded degree is stale).
    uint32_t v = UINT32_MAX;
    while (cursor <= max_deg) {
      auto& bucket = buckets[cursor];
      while (!bucket.empty()) {
        uint32_t cand = bucket.back();
        if (removed[cand] || cur_degree[cand] != cursor) {
          bucket.pop_back();  // stale
          continue;
        }
        v = cand;
        bucket.pop_back();
        break;
      }
      if (v != UINT32_MAX) break;
      ++cursor;
    }
    assert(v != UINT32_MAX);

    removed[v] = true;
    removal_order.push_back(v);
    --live;
    ++steps;
    edges -= cur_degree[v];

    // Decrease neighbor degrees and requeue them.
    auto relax = [&](uint32_t u) {
      if (removed[u]) return;
      uint32_t nd = --cur_degree[u];
      if (nd == 0) {
        // Degree-0 vertices leave the graph (they cannot contribute
        // edges); removing them can only increase density of later
        // snapshots, so drop them silently.
        removed[u] = true;
        removal_order.push_back(u);
        --live;
        ++steps;
        return;
      }
      buckets[nd].push_back(u);
      if (nd < cursor) cursor = nd;
    };
    if (v < n_in) {
      for (uint32_t j : g.InAdj(v)) relax(n_in + j);
    } else {
      for (uint32_t i : g.OutAdj(v - n_in)) relax(i);
    }

    if (live > 0) {
      double density = static_cast<double>(edges) / live;
      if (density > best_density) {
        best_density = density;
        best_step = steps;
      }
    }
  }

  // Reconstruct the best snapshot: all vertices not removed within the
  // first `best_step` removals (and not isolated initially).
  std::vector<bool> in_best(n, false);
  for (uint32_t v = 0; v < n; ++v) {
    in_best[v] = degree[v] > 0;  // started live
  }
  for (uint32_t s = 0; s < best_step; ++s) in_best[removal_order[s]] = false;

  for (uint32_t i = 0; i < n_in; ++i) {
    if (in_best[i]) best.in_vertices.push_back(i);
  }
  for (uint32_t j = 0; j < n_out; ++j) {
    if (in_best[n_in + j]) best.out_vertices.push_back(j);
  }
  // Count edges inside the snapshot.
  for (uint32_t i : best.in_vertices) {
    for (uint32_t j : g.InAdj(i)) {
      if (in_best[n_in + j]) ++best.edges;
    }
  }
  size_t verts = best.in_vertices.size() + best.out_vertices.size();
  best.density = verts == 0 ? 0.0 : static_cast<double>(best.edges) / verts;
  return best;
}

}  // namespace hopi::twohop
