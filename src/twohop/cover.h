// Two-hop labels and covers (paper Sec 3.1).
//
// Each node x carries a label L(x) = (Lin(x), Lout(x)). A connection
// (u, v) is covered when Lout(u) and Lin(v) share a center node. Following
// HOPI's storage rule (Sec 3.4) a node is never stored in its own label;
// every query treats x as an implicit member of both Lin(x) and Lout(x)
// with distance 0.
//
// Entries optionally carry the shortest distance to/from the center
// (Sec 5); plain covers simply keep dist == 0.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "graph/digraph.h"
#include "twohop/join_view.h"

namespace hopi::twohop {

/// One label entry: a center node plus the shortest distance between the
/// labeled node and the center (0 when distances are not tracked).
struct LabelEntry {
  NodeId center;
  uint32_t dist;

  friend bool operator==(const LabelEntry& a, const LabelEntry& b) {
    return a.center == b.center && a.dist == b.dist;
  }
};

/// Result of joining one Lout label with one Lin label.
struct LabelJoinResult {
  bool connected = false;
  /// Minimum connection length implied by the labels; only computed
  /// when requested, nullopt when not connected.
  std::optional<uint32_t> distance;
};

/// The core 2-hop join under the implicit-self-entry rule (Sec 3.4):
/// (u, v) with u != v is connected when Lout(u) and Lin(v) share a
/// center, u appears as a center in Lin(v), or v appears as a center in
/// Lout(u). Both ranges must be sorted by center id. This is the single
/// definition of the join, shared by TwoHopCover queries, the LIN/LOUT
/// file reader, and the QueryEngine batch path; callers handle the
/// reflexive u == v case themselves.
/// `Entry` needs `.center` (NodeId) and `.dist` (uint32_t) fields.
template <typename Entry>
LabelJoinResult JoinLabelRanges(NodeId u, NodeId v, const Entry* lout,
                                size_t lout_n, const Entry* lin, size_t lin_n,
                                bool want_distance) {
  LabelJoinResult result;
  auto consider = [&result](uint32_t d) {
    if (!result.distance || d < *result.distance) result.distance = d;
  };
  // A sorted range can only contain `c` when c falls inside
  // [front, back] — the O(1) screen that makes the lower_bound probes
  // and the merge below skippable for disjoint labels.
  auto in_range = [](const Entry* entries, size_t n, NodeId c) {
    return n != 0 && entries[0].center <= c && c <= entries[n - 1].center;
  };
  auto find = [&in_range](const Entry* entries, size_t n,
                          NodeId c) -> const Entry* {
    if (!in_range(entries, n, c)) return nullptr;
    const Entry* it = std::lower_bound(
        entries, entries + n, c,
        [](const Entry& e, NodeId cc) { return e.center < cc; });
    return it != entries + n && it->center == c ? it : nullptr;
  };
  // Implicit self entries: u ∈ Lout(u) at distance 0 (center u requires
  // u ∈ Lin(v)), v ∈ Lin(v) at distance 0 (center v requires
  // v ∈ Lout(u)).
  if (const Entry* e = find(lin, lin_n, u)) {
    result.connected = true;
    if (want_distance) consider(e->dist);
  }
  if (const Entry* e = find(lout, lout_n, v)) {
    result.connected = true;
    if (want_distance) consider(e->dist);
  }
  if (result.connected && !want_distance) return result;
  // Disjoint center ranges cannot share a center: skip the merge.
  if (lout_n == 0 || lin_n == 0 ||
      lout[lout_n - 1].center < lin[0].center ||
      lin[lin_n - 1].center < lout[0].center) {
    return result;
  }
  // Merge-intersect the explicit label sets.
  size_t i = 0, j = 0;
  while (i < lout_n && j < lin_n) {
    if (lout[i].center < lin[j].center) {
      ++i;
    } else if (lout[i].center > lin[j].center) {
      ++j;
    } else {
      result.connected = true;
      if (!want_distance) return result;
      consider(lout[i].dist + lin[j].dist);
      ++i;
      ++j;
    }
  }
  return result;
}

/// JoinLabelRanges over whole LabelEntry label sets.
LabelJoinResult JoinLabels(NodeId u, NodeId v,
                           const std::vector<LabelEntry>& lout,
                           const std::vector<LabelEntry>& lin,
                           bool want_distance);

/// A two-hop cover: Lin/Lout label sets for every node in [0, NumNodes).
class TwoHopCover {
 public:
  TwoHopCover() = default;
  explicit TwoHopCover(size_t num_nodes)
      : in_(num_nodes),
        out_(num_nodes),
        in_soa_(num_nodes),
        out_soa_(num_nodes) {}

  void EnsureNodes(size_t n);
  size_t NumNodes() const { return in_.size(); }

  /// Adds `center` to Lin(v) with distance `dist` (center ->* v). Skips
  /// self entries. If the center is already present, keeps the smaller
  /// distance. Returns true if the entry count grew.
  bool AddIn(NodeId v, NodeId center, uint32_t dist = 0);

  /// Adds `center` to Lout(u) with distance `dist` (u ->* center).
  bool AddOut(NodeId u, NodeId center, uint32_t dist = 0);

  /// Cover size |L| = sum over nodes of |Lin| + |Lout| (paper Sec 3.1).
  uint64_t Size() const { return size_; }

  const std::vector<LabelEntry>& In(NodeId v) const { return in_[v]; }
  const std::vector<LabelEntry>& Out(NodeId u) const { return out_[u]; }

  /// The same labels as packed structure-of-arrays columns with their
  /// summaries — the shape the vectorized join kernels want. Mirrors
  /// are maintained incrementally by every mutator; views are borrowed
  /// and invalidated by the next mutation of that node's label.
  JoinView InJoin(NodeId v) const { return in_soa_[v].View(); }
  JoinView OutJoin(NodeId u) const { return out_soa_[u].View(); }

  /// Reachability test: true iff u == v or Lout(u) ∪ {u} intersects
  /// Lin(v) ∪ {v}. O(|Lout(u)| + |Lin(v)|).
  bool IsConnected(NodeId u, NodeId v) const;

  /// Shortest distance u -> v implied by the labels: min over common
  /// centers of dist(u,w) + dist(w,v), with the implicit self entries.
  /// nullopt when not connected. Only meaningful for distance-aware
  /// covers (plain covers return 0 for every connected pair).
  std::optional<uint32_t> Distance(NodeId u, NodeId v) const;

  /// Component-wise union with another cover over the same id space
  /// (paper Sec 3.3/4.1: partition covers are unified by label union).
  void UnionWith(const TwoHopCover& other);

  /// Removes every label entry of `v` and every occurrence of the centers
  /// listed in `centers` from v's labels — helper for the deletion paths.
  /// (Specific deletion logic lives in hopi/maintenance.)
  void ClearNode(NodeId v);

  /// Replaces Lin(v) wholesale (maintenance paths). Size is re-accounted.
  void SetIn(NodeId v, std::vector<LabelEntry> entries);
  void SetOut(NodeId u, std::vector<LabelEntry> entries);

  /// True if any label of any node mentions `center`.
  bool MentionsCenter(NodeId center) const;

 private:
  /// Packed SoA twin of one node's label vector. The columns duplicate
  /// the AoS entries exactly (same order); the summary covers exactly
  /// the centers present (Empty when the label is empty).
  struct SoAMirror {
    std::vector<uint32_t> centers;
    std::vector<uint32_t> dists;
    LabelSummary summary = LabelSummary::Empty();

    JoinView View() const {
      JoinView v;
      v.centers = centers.data();
      v.dists = dists.data();
      v.n = centers.size();
      v.summary = summary;
      return v;
    }
    void Rebuild(const std::vector<LabelEntry>& entries);
  };

  static bool InsertEntry(std::vector<LabelEntry>* label, SoAMirror* mirror,
                          NodeId center, uint32_t dist);

  std::vector<std::vector<LabelEntry>> in_;   // sorted by center id
  std::vector<std::vector<LabelEntry>> out_;  // sorted by center id
  std::vector<SoAMirror> in_soa_;             // packed twins of in_/out_
  std::vector<SoAMirror> out_soa_;
  uint64_t size_ = 0;
};

}  // namespace hopi::twohop
