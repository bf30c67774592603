// Center graphs and densest subgraphs (paper Sec 3.2).
//
// For a candidate center w, the center graph CG_w is an undirected
// bipartite graph with a vertex u_in for every ancestor u of w (plus w
// itself) and a vertex v_out for every descendant v (plus w), and an edge
// (u_in, v_out) for every *not yet covered* connection (u, v). Choosing w
// greedily means finding the densest subgraph of CG_w; the classic
// linear-time 2-approximation (repeatedly remove a minimum-degree vertex,
// return the densest intermediate graph) is implemented here.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace hopi::twohop {

/// Bipartite graph with `num_in` left vertices and `num_out` right
/// vertices, indexed 0-based per side, stored as two CSR arrays.
///
/// Edges must arrive grouped by in-vertex, in ascending in-vertex order
/// (debug-asserted); within a group they keep their arrival order. The
/// out side is filled by one counting pass over the in side the first
/// time the graph is read, so every out-vertex lists its in-vertices
/// ascending. Reset() keeps both arrays' capacity: the cover builder
/// holds one graph per worker and refills it for every candidate
/// evaluation without touching the heap. A graph is filled and read by
/// one thread at a time.
class BipartiteGraph {
 public:
  BipartiteGraph() = default;
  BipartiteGraph(uint32_t num_in, uint32_t num_out) { Reset(num_in, num_out); }

  /// Empties the graph and resizes both sides; keeps the capacity.
  void Reset(uint32_t num_in, uint32_t num_out);

  /// Adds edge (in-vertex i, out-vertex j). No duplicate detection — the
  /// builder feeds each candidate pair exactly once. `i` must not be
  /// smaller than the previous edge's in-vertex, and no edge may follow
  /// the first read.
  void AddEdge(uint32_t i, uint32_t j) {
    assert(i < num_in_ && j < num_out_);
    assert(i + 1 >= in_started_);  // grouped, ascending in-vertex order
    while (in_started_ <= i) in_offsets_[in_started_++] = in_edges_.size();
    in_edges_.push_back(j);
  }

  uint32_t NumIn() const { return num_in_; }
  uint32_t NumOut() const { return num_out_; }
  uint64_t NumEdges() const { return in_edges_.size(); }

  std::span<const uint32_t> InAdj(uint32_t i) const {
    Seal();
    return {in_edges_.data() + in_offsets_[i],
            in_edges_.data() + in_offsets_[i + 1]};
  }
  std::span<const uint32_t> OutAdj(uint32_t j) const {
    Seal();
    return {out_edges_.data() + out_offsets_[j],
            out_edges_.data() + out_offsets_[j + 1]};
  }

 private:
  /// Closes the in-side offsets and fills the out side (counting pass).
  void Seal() const {
    if (!sealed_) FillOutSide();
  }
  void FillOutSide() const;

  uint32_t num_in_ = 0;
  uint32_t num_out_ = 0;
  // In side: in-vertex i's out-vertices are in_edges_[in_offsets_[i] ..
  // in_offsets_[i + 1]). Offsets up to in_started_ are final while edges
  // arrive; Seal() writes the rest.
  std::vector<uint32_t> in_edges_;
  mutable std::vector<size_t> in_offsets_;
  mutable uint32_t in_started_ = 0;
  // Out side, derived from the in side by Seal().
  mutable std::vector<uint32_t> out_edges_;
  mutable std::vector<size_t> out_offsets_;
  mutable bool sealed_ = true;
};

/// Densest-subgraph output: the chosen vertex subsets and their density.
struct DensestSubgraph {
  std::vector<uint32_t> in_vertices;   // indices on the in side
  std::vector<uint32_t> out_vertices;  // indices on the out side
  uint64_t edges = 0;                  // edges inside the subgraph
  double density = 0.0;                // edges / (|in| + |out|)
};

/// 2-approximation by minimum-degree peeling. Isolated vertices are never
/// part of the result (the paper removes them from CG_w up front).
/// Returns a zero-density result for an edgeless graph.
DensestSubgraph ApproxDensestSubgraph(const BipartiteGraph& g);

}  // namespace hopi::twohop
