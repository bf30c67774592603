#include "twohop/builder.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <memory>
#include <queue>
#include <ranges>
#include <span>
#include <utility>

#include "graph/bitset.h"
#include "twohop/center_graph.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hopi::twohop {

namespace {

/// Builds over at most this many nodes check the uncovered set's row
/// counts against the rows in debug builds.
constexpr size_t kCheckedRowCountNodes = 4096;

/// The set T' of not-yet-covered connections, as per-source bitset rows
/// with a count per row, so walks skip an emptied row without reading it.
class UncoveredSet {
 public:
  /// Plain mode: the closure's descendant rows.
  explicit UncoveredSet(const TransitiveClosure& tc) {
    rows_.reserve(tc.NumNodes());
    row_counts_.reserve(tc.NumNodes());
    for (NodeId u = 0; u < tc.NumNodes(); ++u) {
      rows_.push_back(tc.DescendantsRow(u));  // copy
      row_counts_.push_back(static_cast<uint32_t>(rows_.back().Count()));
      count_ += row_counts_.back();
    }
  }

  /// Distance mode: the same connection set, read off the distance rows.
  explicit UncoveredSet(const DistanceClosure& dc) {
    const size_t n = dc.NumNodes();
    rows_.reserve(n);
    row_counts_.reserve(n);
    for (NodeId u = 0; u < n; ++u) {
      DynamicBitset& row = rows_.emplace_back(n);
      for (const DistConnection& c : dc.Row(u)) row.Set(c.node);
      row_counts_.push_back(static_cast<uint32_t>(dc.Row(u).size()));
      count_ += row_counts_.back();
    }
  }

  uint64_t count() const { return count_; }
  uint32_t RowCount(NodeId u) const { return row_counts_[u]; }

  void Remove(NodeId u, NodeId v) {
    if (rows_[u].Clear(v)) {
      --row_counts_[u];
      --count_;
    }
  }

  /// Removes all uncovered pairs (u, v) with v in `targets`, whose set
  /// bits all lie in words [begin_word, end_word); returns the number
  /// removed. (Plain mode bulk removal.)
  uint64_t RemoveRowSubset(NodeId u, const DynamicBitset& targets,
                           size_t begin_word, size_t end_word) {
    uint64_t removed = rows_[u].SubtractWith(targets, begin_word, end_word);
    row_counts_[u] -= static_cast<uint32_t>(removed);
    count_ -= removed;
    return removed;
  }

  const DynamicBitset& Row(NodeId u) const { return rows_[u]; }

  /// True iff every row count equals its row's popcount (debug check).
  bool CountsMatchRows() const {
    for (size_t u = 0; u < rows_.size(); ++u) {
      if (rows_[u].Count() != row_counts_[u]) return false;
    }
    return true;
  }

 private:
  std::vector<DynamicBitset> rows_;
  std::vector<uint32_t> row_counts_;
  uint64_t count_ = 0;
};

/// One side of a candidate's center graph: node ids plus distances to/from
/// the center (distances stay 0 in plain mode).
struct Side {
  std::vector<NodeId> nodes;
  std::vector<uint32_t> dists;
};

/// Builds the ancestor side (Anc(w) + w) and descendant side (Desc(w) + w)
/// of w's center graph, from the distance rows when `dc` is set and from
/// the closure rows otherwise. Both sides are ascending in node id with w
/// appended last.
void BuildSides(const TransitiveClosure* tc, const DistanceClosure* dc,
                NodeId w, Side* in_side, Side* out_side) {
  in_side->nodes.clear();
  in_side->dists.clear();
  out_side->nodes.clear();
  out_side->dists.clear();
  if (dc != nullptr) {
    for (const DistConnection& c : dc->ReverseRow(w)) {
      in_side->nodes.push_back(c.node);
      in_side->dists.push_back(c.dist);
    }
    for (const DistConnection& c : dc->Row(w)) {
      out_side->nodes.push_back(c.node);
      out_side->dists.push_back(c.dist);
    }
  } else {
    tc->AncestorsRow(w).ForEach([&](size_t u) {
      in_side->nodes.push_back(static_cast<NodeId>(u));
      in_side->dists.push_back(0);
    });
    tc->DescendantsRow(w).ForEach([&](size_t v) {
      out_side->nodes.push_back(static_cast<NodeId>(v));
      out_side->dists.push_back(0);
    });
  }
  in_side->nodes.push_back(w);
  in_side->dists.push_back(0);
  out_side->nodes.push_back(w);
  out_side->dists.push_back(0);
}

/// Finds the uncovered pairs of a center graph by survivor walks: each
/// ancestor's uncovered bitset row is ANDed with a mask of out-side nodes,
/// word-parallel, and only the surviving bits are looked at. The AND
/// reads only the words the mask spans, and a row with no uncovered pair
/// left is skipped before any of its words is read. In distance mode
/// (`dc` set) a surviving (u, v) is an edge iff w lies on a shortest
/// u -> v path (Sec 5.2), dist(u,v) == dist(u,w) + dist(w,v); dist(u,v)
/// comes from one cursor that advances through the sorted Row(u) as the
/// survivors ascend, so no pair pays a search. Holds per-worker scratch
/// (out-side index map and mask, covered-pair buffer) so the hot loop is
/// allocation free.
class CenterGraphBuilder {
 public:
  explicit CenterGraphBuilder(size_t num_nodes)
      : out_index_(num_nodes, UINT32_MAX), out_mask_(num_nodes) {}

  /// Fills `cg` with w's center graph restricted to uncovered pairs.
  /// Adjacency order is part of the bit-identity contract (the densest-
  /// subgraph peeling breaks degree ties by it): in-vertices ascend, and
  /// each in-vertex's out-vertices ascend by node id — except that in
  /// distance mode w's own column comes last.
  void Build(const UncoveredSet& uncovered, const DistanceClosure* dc,
             const Side& in_side, const Side& out_side, BipartiteGraph* cg) {
    cg->Reset(static_cast<uint32_t>(in_side.nodes.size()),
              static_cast<uint32_t>(out_side.nodes.size()));
    MarkColumns(dc, out_side, std::views::iota(0u, cg->NumOut()));
    for (uint32_t i = 0; i < in_side.nodes.size(); ++i) {
      ForEachSurvivor(uncovered, dc, in_side, out_side, i,
                      [&](uint32_t j) { cg->AddEdge(i, j); });
    }
    UnmarkColumns(out_side);
  }

  /// Removes the uncovered pairs that choosing w with these in/out
  /// vertices covers: every (u, v) over in_chosen x out_chosen in plain
  /// mode, only those with w on a shortest path in distance mode.
  /// Returns the number of pairs removed.
  uint64_t Cover(const DistanceClosure* dc, const Side& in_side,
                 const Side& out_side, const std::vector<uint32_t>& in_chosen,
                 const std::vector<uint32_t>& out_chosen,
                 UncoveredSet* uncovered) {
    MarkColumns(dc, out_side, out_chosen);
    uint64_t covered = 0;
    for (uint32_t i : in_chosen) {
      NodeId u = in_side.nodes[i];
      if (dc == nullptr) {
        if (uncovered->RowCount(u) == 0) continue;
        covered += uncovered->RemoveRowSubset(u, out_mask_, begin_word_,
                                              end_word_);
        continue;
      }
      covered_targets_.clear();
      ForEachSurvivor(*uncovered, dc, in_side, out_side, i, [&](uint32_t j) {
        covered_targets_.push_back(out_side.nodes[j]);
      });
      for (NodeId v : covered_targets_) uncovered->Remove(u, v);
      covered += covered_targets_.size();
    }
    UnmarkColumns(out_side);
    return covered;
  }

 private:
  /// Puts the out-side columns `columns` into the mask and records the
  /// mask's word span [begin_word_, end_word_). In distance mode w (the
  /// last column) stays out of the mask and is tested on its own after
  /// each walk (w_selected_), which keeps it last.
  template <typename Columns>
  void MarkColumns(const DistanceClosure* dc, const Side& out_side,
                   const Columns& columns) {
    const uint32_t w_col = static_cast<uint32_t>(out_side.nodes.size()) - 1;
    w_selected_ = false;
    NodeId lo = kInvalidNode;
    NodeId hi = 0;
    for (uint32_t j : columns) {
      if (dc != nullptr && j == w_col) {
        w_selected_ = true;
        continue;
      }
      const NodeId v = out_side.nodes[j];
      out_index_[v] = j;
      out_mask_.Set(v);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    begin_word_ = lo == kInvalidNode ? 0 : lo / 64;
    end_word_ = lo == kInvalidNode ? 0 : hi / 64 + 1;
  }

  void UnmarkColumns(const Side& out_side) {
    for (NodeId v : out_side.nodes) {
      out_index_[v] = UINT32_MAX;
      out_mask_.Clear(v);
    }
  }

  /// Calls fn(j) for every marked out-side column j whose pair
  /// (in_side[i], out_side[j]) is uncovered and, in distance mode, has w
  /// on a shortest path. Columns arrive ascending by node id (w last).
  template <typename Fn>
  void ForEachSurvivor(const UncoveredSet& uncovered, const DistanceClosure* dc,
                       const Side& in_side, const Side& out_side, uint32_t i,
                       Fn&& fn) const {
    const NodeId u = in_side.nodes[i];
    if (uncovered.RowCount(u) == 0) return;
    const DynamicBitset& row = uncovered.Row(u);
    if (dc == nullptr) {
      row.ForEachIntersection(out_mask_, begin_word_, end_word_,
                              [&](size_t v) {
                                if (static_cast<NodeId>(v) != u) {
                                  fn(out_index_[v]);
                                }
                              });
      return;
    }
    // Every uncovered (u, v) is a connection, so v is in Row(u) and the
    // cursor stops on it.
    const std::vector<DistConnection>& dist_row = dc->Row(u);
    const uint32_t dist_uw = in_side.dists[i];
    size_t cursor = 0;
    row.ForEachIntersection(out_mask_, begin_word_, end_word_, [&](size_t v) {
      cursor = GallopTo(dist_row, cursor, static_cast<NodeId>(v));
      assert(cursor < dist_row.size() && dist_row[cursor].node == v);
      uint32_t j = out_index_[v];
      if (dist_row[cursor].dist == dist_uw + out_side.dists[j]) fn(j);
    });
    // (u, w) lies on its own shortest path: dist(u,w) + dist(w,w).
    const NodeId w = out_side.nodes.back();
    if (w_selected_ && row.Test(w)) {
      fn(static_cast<uint32_t>(out_side.nodes.size()) - 1);
    }
  }

  /// The first position at or after `from` whose node is >= v. The
  /// step doubles until it passes v and a binary search finishes the
  /// last one, so a long gap — the walk's first survivor, say — costs
  /// O(log gap) entry reads instead of one per entry skipped.
  static size_t GallopTo(const std::vector<DistConnection>& row, size_t from,
                         NodeId v) {
    if (row[from].node >= v) return from;
    size_t lo = from;  // row[lo].node < v throughout
    size_t step = 1;
    while (lo + step < row.size() && row[lo + step].node < v) {
      lo += step;
      step *= 2;
    }
    const size_t hi = std::min(lo + step, row.size());
    return static_cast<size_t>(
        std::lower_bound(row.begin() + static_cast<ptrdiff_t>(lo + 1),
                         row.begin() + static_cast<ptrdiff_t>(hi), v,
                         [](const DistConnection& c, NodeId x) {
                           return c.node < x;
                         }) -
        row.begin());
  }

  std::vector<uint32_t> out_index_;
  DynamicBitset out_mask_;
  size_t begin_word_ = 0;  // out_mask_'s set bits lie in these words
  size_t end_word_ = 0;
  bool w_selected_ = false;
  std::vector<NodeId> covered_targets_;
};

/// Priority-queue entry for the lazy candidate queue. The comparison is a
/// strict total order (each node has at most one live entry, so the
/// (priority, node) keys are distinct): ties on priority break toward the
/// smaller node id. This makes the pop sequence a function of the queue
/// *contents* alone — independent of heap layout, and therefore of how
/// the speculation stage pops and re-pushes the frontier.
struct Candidate {
  double priority;
  NodeId node;
  bool operator<(const Candidate& other) const {
    if (priority != other.priority) return priority < other.priority;
    return node > other.node;  // max-heap: equal priorities pop low id first
  }
};

/// Closed-form initial density for the plain mode: the initial center
/// graph is complete bipartite over (a+1, d+1) vertices minus the (w,w)
/// pair, and is its own densest subgraph.
double PlainInitialPriority(uint64_t a, uint64_t d) {
  uint64_t edges = (a + 1) * (d + 1) - 1;
  if (edges == 0) return 0.0;
  return static_cast<double>(edges) / static_cast<double>(a + d + 2);
}

/// Sampled pairs are looked up this many at a time, so the buffers below
/// stay in L1 however many samples a node draws.
constexpr size_t kSampleChunk = 1024;

/// A chunk of sampled pairs: endpoints, the distance that puts w on a
/// shortest path, and the looked-up dist(u, v).
struct SampleBuffer {
  std::array<NodeId, kSampleChunk> us;
  std::array<NodeId, kSampleChunk> vs;
  std::array<uint32_t, kSampleChunk> via_w;
  std::array<uint32_t, kSampleChunk> dists;
};

/// Sampled upper-bound priority for the distance mode (Sec 5.2). Samples
/// are drawn in stream order (i then j per sample from the node's stream)
/// a chunk at a time, and one DistBatch resolves each chunk's dist(u, v);
/// `present` counts matches and does not depend on lookup order.
double DistanceInitialPriority(const DistanceClosure& dc, NodeId w,
                               uint32_t max_samples, double confidence,
                               Rng* rng, SampleBuffer* buf) {
  const auto& anc = dc.ReverseRow(w);
  const auto& desc = dc.Row(w);
  uint64_t a = anc.size();
  uint64_t d = desc.size();
  uint64_t candidates = (a + 1) * (d + 1) - 1;
  if (candidates == 0) return 0.0;

  // Edges to/from w itself always satisfy the shortest-path condition, so
  // sample only the a*d interior pairs and add the a + d guaranteed edges.
  uint64_t interior = a * d;
  uint64_t present = 0;
  const uint64_t samples = std::min<uint64_t>(interior, max_samples);
  for (uint64_t first = 0; first < samples; first += kSampleChunk) {
    const size_t chunk = std::min<uint64_t>(kSampleChunk, samples - first);
    for (size_t s = 0; s < chunk; ++s) {
      const DistConnection& cu = anc[rng->NextBounded(a)];
      const DistConnection& cv = desc[rng->NextBounded(d)];
      buf->us[s] = cu.node;
      buf->vs[s] = cv.node;
      buf->via_w[s] = cu.dist + cv.dist;
    }
    dc.DistBatch(std::span(buf->us).first(chunk),
                 std::span(buf->vs).first(chunk),
                 std::span(buf->dists).first(chunk));
    // A cyclic anc∩desc member drawn on both sides is not a pair: its
    // dist(u, u) = 0 never equals via_w >= 2, so it counts as absent.
    for (size_t s = 0; s < chunk; ++s) {
      present += buf->dists[s] == buf->via_w[s];
    }
  }
  double upper_fraction = 1.0;
  if (samples > 0) {
    upper_fraction =
        BinomialConfidenceInterval(present, samples, confidence).upper;
  } else if (interior == 0) {
    upper_fraction = 0.0;
  }
  double est_edges = upper_fraction * static_cast<double>(interior) +
                     static_cast<double>(a + d);
  // Max density of any graph with E edges is sqrt(E)/2 (balanced complete
  // bipartite), so this is a safe upper bound with probability >= 0.99.
  return std::sqrt(est_edges) / 2.0;
}

/// Per-worker scratch for candidate evaluation: sides, the center-graph
/// builder's index map/mask and the CSR center graph itself are reused
/// across evaluations so the hot loop stays allocation-light, and owning
/// one per worker makes the speculation stage share nothing but
/// read-only state. Priority seeding reuses the sample buffer.
struct EvalScratch {
  explicit EvalScratch(size_t num_nodes) : cg_builder(num_nodes) {}
  Side in_side;
  Side out_side;
  CenterGraphBuilder cg_builder;
  BipartiteGraph cg;
  SampleBuffer samples;
};

/// A candidate's densest-subgraph evaluation, stamped with the version of
/// the uncovered set it was computed against. `consumed` distinguishes
/// speculative work that paid off from work a commit threw away.
struct CachedEval {
  uint64_t version = 0;  // 0 = never evaluated
  bool consumed = false;
  DensestSubgraph ds;
};

/// The staged cover-construction pipeline (see builder.h for the stage
/// overview and the determinism argument). One instance per build; the
/// pool (if any) lives as long as the pipeline. Exactly one closure is
/// given: the bitset closure `tc` in plain mode, the distance rows `dc`
/// in distance mode (which then read nothing else).
class CoverBuildPipeline {
 public:
  CoverBuildPipeline(const TransitiveClosure* tc, const DistanceClosure* dc,
                     const CoverBuildOptions& options, CoverBuildStats* stats)
      : tc_(tc),
        dc_(dc),
        options_(options),
        stats_(stats),
        n_(dc != nullptr ? dc->NumNodes() : tc->NumNodes()),
        cover_(n_),
        uncovered_(dc != nullptr ? UncoveredSet(*dc) : UncoveredSet(*tc)) {
    assert((tc == nullptr) != (dc == nullptr));
    assert(options.with_distance == (dc != nullptr));
    if (options_.num_threads > 1) {
      pool_ = std::make_unique<ThreadPool>(options_.num_threads);
    }
    size_t workers = pool_ ? pool_->NumWorkers() : 1;
    scratch_.reserve(workers);
    for (size_t i = 0; i < workers; ++i) scratch_.emplace_back(n_);
    batch_limit_ = options_.speculation_batch > 0 ? options_.speculation_batch
                                                  : workers;
  }

  Result<TwoHopCover> Run() {
    stats_->initial_connections = uncovered_.count();
    Stopwatch watch;
    Preselect();
    stats_->greedy_seconds = watch.ElapsedSeconds();
    // Test-sized builds check the row counts; the assert compiles out
    // with NDEBUG.
    assert(n_ > kCheckedRowCountNodes || uncovered_.CountsMatchRows());
    watch.Restart();
    HOPI_RETURN_NOT_OK(SeedPriorities());
    stats_->seed_seconds = watch.ElapsedSeconds();
    watch.Restart();
    HOPI_RETURN_NOT_OK(GreedyLoop());
    stats_->greedy_seconds += watch.ElapsedSeconds();
    assert(n_ > kCheckedRowCountNodes || uncovered_.CountsMatchRows());
    return std::move(cover_);
  }

 private:
  // --- Stage 0: center preselection (Sec 4.2), sequential ---
  void Preselect() {
    EvalScratch& s = scratch_[0];
    for (NodeId w : options_.preselect_centers) {
      if (uncovered_.count() == 0) break;
      assert(w < n_);
      BuildSides(tc_, dc_, w, &s.in_side, &s.out_side);
      // Use only nodes that still have an uncovered pair through w — the
      // point of preselection is fewer redundant entries, not more.
      std::vector<uint32_t> in_chosen, out_chosen;
      s.cg_builder.Build(uncovered_, dc_, s.in_side, s.out_side, &s.cg);
      const BipartiteGraph& cg = s.cg;
      for (uint32_t i = 0; i < cg.NumIn(); ++i) {
        if (!cg.InAdj(i).empty()) in_chosen.push_back(i);
      }
      for (uint32_t j = 0; j < cg.NumOut(); ++j) {
        if (!cg.OutAdj(j).empty()) out_chosen.push_back(j);
      }
      if (in_chosen.empty()) continue;
      stats_->preselect_covered += ApplyCenter(w, s, in_chosen, out_chosen);
    }
  }

  /// Applies center w with the chosen sides (indices into the sides in
  /// `s`): adds labels and removes the covered pairs. Returns the number
  /// of pairs covered.
  uint64_t ApplyCenter(NodeId w, EvalScratch& s,
                       const std::vector<uint32_t>& in_chosen,
                       const std::vector<uint32_t>& out_chosen) {
    for (uint32_t i : in_chosen) {
      cover_.AddOut(s.in_side.nodes[i], w, s.in_side.dists[i]);
    }
    for (uint32_t j : out_chosen) {
      cover_.AddIn(s.out_side.nodes[j], w, s.out_side.dists[j]);
    }
    return s.cg_builder.Cover(dc_, s.in_side, s.out_side, in_chosen,
                              out_chosen, &uncovered_);
  }

  // --- Stage 1: parallel priority seeding ---
  // Each node's initial priority is a pure function of the closure and,
  // in distance mode, its own forked random stream — so the parallel and
  // sequential passes produce the same priorities bit for bit.
  Status SeedPriorities() {
    std::vector<double> priorities(n_, 0.0);
    const Rng base(options_.sample_seed);
    auto seed_one = [&](size_t w, size_t worker) {
      if (options_.with_distance) {
        Rng node_rng = base.Fork(w);
        priorities[w] = DistanceInitialPriority(
            *dc_, static_cast<NodeId>(w), options_.max_density_samples,
            options_.density_confidence, &node_rng, &scratch_[worker].samples);
      } else {
        priorities[w] = PlainInitialPriority(
            tc_->AncestorsRow(static_cast<NodeId>(w)).Count(),
            tc_->DescendantsRow(static_cast<NodeId>(w)).Count());
      }
      return Status::OK();
    };
    if (pool_) {
      HOPI_RETURN_NOT_OK(pool_->ParallelFor(0, n_, seed_one));
    } else {
      for (size_t w = 0; w < n_; ++w) {
        Status s = seed_one(w, 0);
        assert(s.ok());
        (void)s;
      }
    }
    for (NodeId w = 0; w < n_; ++w) {
      if (priorities[w] > 0.0) queue_.push({priorities[w], w});
    }
    return Status::OK();
  }

  // --- Stage 2+3: speculative evaluation + sequential commits ---
  Status GreedyLoop() {
    constexpr double kEps = 1e-9;
    cache_.assign(n_, CachedEval{});
    while (uncovered_.count() > 0) {
      if (queue_.empty()) {
        return Status::Internal(
            "candidate queue drained with uncovered connections left");
      }
      if (cache_[queue_.top().node].version != version_) {
        HOPI_RETURN_NOT_OK(EvaluateFrontier());
      }
      Candidate cand = queue_.top();
      queue_.pop();
      NodeId w = cand.node;
      CachedEval& eval = cache_[w];
      assert(eval.version == version_);
      eval.consumed = true;
      const DensestSubgraph& ds = eval.ds;

      if (ds.density <= 0.0) {
        eval.ds = DensestSubgraph();  // w is dropped for good; free its eval
        continue;
      }
      if (ds.density + kEps < cand.priority) {
        // Stale: priority dropped since the estimate. Reinsert and retry.
        queue_.push({ds.density, w});
        ++stats_->queue_reinsertions;
        continue;
      }

      // Commit. The popped candidate's evaluation is exact: the uncovered
      // set has not changed since version_ was stamped. Sides are
      // rebuilt (pure in w, O(|Anc|+|Desc|)) rather than cached — the
      // chosen vertex indices refer to their deterministic order.
      EvalScratch& s = scratch_[0];
      BuildSides(tc_, dc_, w, &s.in_side, &s.out_side);
      uint64_t covered = ApplyCenter(w, s, ds.in_vertices, ds.out_vertices);
      assert(covered > 0);
      (void)covered;
      ++stats_->centers_chosen;
      ++version_;  // every outstanding speculative evaluation is now stale
      // w may still be useful for its remaining uncovered pairs; its
      // density can only have decreased, so this is a valid upper bound.
      queue_.push({ds.density, w});
      // Everything evaluated against the pre-commit snapshot is dead now
      // (including w's own result, consumed above) — release the vertex
      // lists so cache memory stays bounded by one snapshot's frontier
      // activity instead of growing with every node ever evaluated. The
      // version/consumed flags survive for the waste accounting.
      for (NodeId evaluated : current_version_evals_) {
        cache_[evaluated].ds = DensestSubgraph();
      }
      current_version_evals_.clear();
    }
    // The final commit staled the whole outstanding frontier; those
    // evaluations will never be consumed, so account them now (in-loop
    // waste counting only sees entries that get re-evaluated).
    for (const CachedEval& e : cache_) {
      if (e.version != 0 && e.version != version_ && !e.consumed) {
        ++stats_->speculative_wasted;
      }
    }
    return Status::OK();
  }

  /// Pops the top-K frontier, evaluates every candidate without a
  /// current-version cache entry in parallel against the (read-only)
  /// uncovered set, and pushes the frontier back unchanged — the queue
  /// contents, and with them the deterministic pop order, are exactly as
  /// before the speculation.
  Status EvaluateFrontier() {
    batch_.clear();
    eval_nodes_.clear();
    while (batch_.size() < batch_limit_ && !queue_.empty()) {
      Candidate c = queue_.top();
      queue_.pop();
      batch_.push_back(c);
      CachedEval& e = cache_[c.node];
      if (e.version == version_) continue;  // still fresh from a prior round
      if (e.version != 0 && !e.consumed) ++stats_->speculative_wasted;
      eval_nodes_.push_back(c.node);
    }
    // The frontier head always needs evaluation (that is why we are
    // here); everything beyond it is speculation.
    assert(!eval_nodes_.empty());
    stats_->densest_recomputations += eval_nodes_.size();
    stats_->speculative_evaluations += eval_nodes_.size() - 1;

    auto eval_one = [&](size_t idx, size_t worker) {
      NodeId w = eval_nodes_[idx];
      EvalScratch& s = scratch_[worker];
      BuildSides(tc_, dc_, w, &s.in_side, &s.out_side);
      s.cg_builder.Build(uncovered_, dc_, s.in_side, s.out_side, &s.cg);
      CachedEval& e = cache_[w];
      e.ds = ApproxDensestSubgraph(s.cg);
      e.version = version_;
      e.consumed = false;
      return Status::OK();
    };
    current_version_evals_.insert(current_version_evals_.end(),
                                  eval_nodes_.begin(), eval_nodes_.end());
    Status status = Status::OK();
    if (pool_ && eval_nodes_.size() > 1) {
      status = pool_->ParallelFor(0, eval_nodes_.size(), eval_one);
    } else {
      for (size_t idx = 0; idx < eval_nodes_.size(); ++idx) {
        Status s = eval_one(idx, 0);
        assert(s.ok());
        (void)s;
      }
    }
    for (const Candidate& c : batch_) queue_.push(c);
    return status;
  }

  const TransitiveClosure* tc_;  // plain mode only
  const DistanceClosure* dc_;    // distance mode only
  const CoverBuildOptions& options_;
  CoverBuildStats* stats_;
  const size_t n_;

  TwoHopCover cover_;
  UncoveredSet uncovered_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<EvalScratch> scratch_;
  size_t batch_limit_ = 1;

  std::priority_queue<Candidate> queue_;
  std::vector<CachedEval> cache_;
  uint64_t version_ = 1;  // bumped per commit; cache entries must match
  std::vector<Candidate> batch_;     // frontier gathered per round
  std::vector<NodeId> eval_nodes_;   // frontier members needing evaluation
  std::vector<NodeId> current_version_evals_;  // evaluated since the last
                                               // commit; freed by the next
};

}  // namespace

Result<TwoHopCover> BuildCover(const Digraph& g,
                               const CoverBuildOptions& options,
                               CoverBuildStats* stats) {
  CoverBuildStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  Stopwatch watch;
  if (options.with_distance) {
    DistanceClosure dc = DistanceClosure::Build(g);
    CoverBuildPipeline pipeline(nullptr, &dc, options, stats);
    stats->closure_seconds = watch.ElapsedSeconds();
    return pipeline.Run();
  }
  auto tc = TransitiveClosure::Build(g);
  if (!tc.ok()) return tc.status();
  CoverBuildPipeline pipeline(&*tc, nullptr, options, stats);
  stats->closure_seconds = watch.ElapsedSeconds();
  return pipeline.Run();
}

Status ValidateCover(const TwoHopCover& cover, const Digraph& g,
                     bool check_distances) {
  if (cover.NumNodes() < g.NumNodes()) {
    return Status::Internal("cover smaller than graph: " +
                            std::to_string(cover.NumNodes()) + " vs " +
                            std::to_string(g.NumNodes()));
  }
  DistanceClosure dc = DistanceClosure::Build(g);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    // Completeness + distance correctness over real connections.
    for (const DistConnection& c : dc.Row(u)) {
      if (!cover.IsConnected(u, c.node)) {
        return Status::Internal("connection (" + std::to_string(u) + "," +
                                std::to_string(c.node) + ") not covered");
      }
      if (check_distances) {
        auto d = cover.Distance(u, c.node);
        if (!d || *d != c.dist) {
          return Status::Internal(
              "distance mismatch for (" + std::to_string(u) + "," +
              std::to_string(c.node) + "): cover says " +
              (d ? std::to_string(*d) : "none") + ", graph says " +
              std::to_string(c.dist));
        }
      }
    }
    // Soundness: cover must not claim connections the graph lacks.
    size_t expected = dc.Row(u).size();
    size_t claimed = 0;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (v != u && cover.IsConnected(u, v)) ++claimed;
    }
    if (claimed != expected) {
      return Status::Internal("node " + std::to_string(u) + " claims " +
                              std::to_string(claimed) + " descendants, graph has " +
                              std::to_string(expected));
    }
  }
  return Status::OK();
}

}  // namespace hopi::twohop
