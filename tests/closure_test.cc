#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>

#include "graph/bitset.h"
#include "graph/closure.h"
#include "graph/traversal.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace hopi {
namespace {

TEST(BitsetTest, SetTestClear) {
  DynamicBitset b(100);
  EXPECT_FALSE(b.Test(5));
  EXPECT_TRUE(b.Set(5));
  EXPECT_FALSE(b.Set(5));  // already set
  EXPECT_TRUE(b.Test(5));
  EXPECT_TRUE(b.Clear(5));
  EXPECT_FALSE(b.Clear(5));
  EXPECT_FALSE(b.Test(5));
}

TEST(BitsetTest, GrowsOnDemand) {
  DynamicBitset b;
  EXPECT_TRUE(b.Set(1000));
  EXPECT_TRUE(b.Test(1000));
  EXPECT_FALSE(b.Test(999));
}

TEST(BitsetTest, UnionCountsNewBits) {
  DynamicBitset a(128), b(128);
  a.Set(1);
  a.Set(64);
  b.Set(64);
  b.Set(100);
  EXPECT_EQ(a.UnionWith(b), 1u);  // only bit 100 is new
  EXPECT_EQ(a.Count(), 3u);
}

TEST(BitsetTest, SubtractCountsRemoved) {
  DynamicBitset a(128), b(128);
  a.Set(1);
  a.Set(2);
  a.Set(3);
  b.Set(2);
  b.Set(99);
  EXPECT_EQ(a.SubtractWith(b), 1u);
  EXPECT_FALSE(a.Test(2));
  EXPECT_TRUE(a.Test(1));
}

TEST(BitsetTest, IntersectsAndForEachIntersection) {
  DynamicBitset a(200), b(200);
  a.Set(3);
  a.Set(150);
  b.Set(150);
  EXPECT_TRUE(a.Intersects(b));
  std::vector<size_t> common;
  a.ForEachIntersection(b, [&common](size_t i) { common.push_back(i); });
  EXPECT_EQ(common, (std::vector<size_t>{150}));
  b.Clear(150);
  EXPECT_FALSE(a.Intersects(b));
}

TEST(BitsetTest, WordRangeForEachIntersectionAtTheEdges) {
  // Three words; common bits in the first and last word and one between.
  DynamicBitset a(192), b(192);
  for (size_t i : {0u, 63u, 64u, 100u, 128u, 191u}) a.Set(i);
  for (size_t i : {0u, 63u, 100u, 128u, 191u, 150u}) b.Set(i);
  auto common = [&](size_t begin_word, size_t end_word) {
    std::vector<size_t> out;
    a.ForEachIntersection(b, begin_word, end_word,
                          [&out](size_t i) { out.push_back(i); });
    return out;
  };
  EXPECT_EQ(common(0, 3), (std::vector<size_t>{0, 63, 100, 128, 191}));
  EXPECT_EQ(common(0, 1), (std::vector<size_t>{0, 63}));    // first word
  EXPECT_EQ(common(2, 3), (std::vector<size_t>{128, 191}));  // last word
  EXPECT_EQ(common(1, 2), (std::vector<size_t>{100}));
  EXPECT_TRUE(common(1, 1).empty());  // empty range
  EXPECT_TRUE(common(2, 1).empty());  // reversed range reads nothing
  EXPECT_TRUE(common(3, 9).empty());  // wholly past the end
  EXPECT_EQ(common(2, 1000), (std::vector<size_t>{128, 191}));  // clipped
  // A shorter operand clips the range too.
  DynamicBitset short_b(64);
  short_b.Set(63);
  std::vector<size_t> out;
  a.ForEachIntersection(short_b, 0, 3, [&out](size_t i) { out.push_back(i); });
  EXPECT_EQ(out, (std::vector<size_t>{63}));
}

TEST(BitsetTest, WordRangeSubtractTouchesOnlyItsWords) {
  DynamicBitset a(192), b(192);
  for (size_t i : {1u, 70u, 190u}) {
    a.Set(i);
    b.Set(i);
  }
  EXPECT_EQ(a.SubtractWith(b, 1, 2), 1u);  // only bit 70's word
  EXPECT_EQ(a.ToVector(), (std::vector<uint32_t>{1, 190}));
  EXPECT_EQ(a.SubtractWith(b, 3, 7), 0u);  // past the end
  EXPECT_EQ(a.SubtractWith(b, 0, 0), 0u);  // empty
  EXPECT_EQ(a.SubtractWith(b, 0, 99), 2u);
  EXPECT_FALSE(a.Any());
}

TEST(BitsetTest, ToVectorSorted) {
  DynamicBitset b(300);
  b.Set(250);
  b.Set(3);
  b.Set(64);
  EXPECT_EQ(b.ToVector(), (std::vector<uint32_t>{3, 64, 250}));
}

TEST(TransitiveClosureTest, Chain) {
  Digraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  auto tc = TransitiveClosure::Build(g);
  ASSERT_TRUE(tc.ok());
  EXPECT_EQ(tc->NumConnections(), 3u);  // (0,1) (0,2) (1,2)
  EXPECT_TRUE(tc->Contains(0, 2));
  EXPECT_TRUE(tc->Contains(0, 0));  // reflexive by definition
  EXPECT_FALSE(tc->Contains(2, 0));
  EXPECT_EQ(tc->Descendants(0), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(tc->Ancestors(2), (std::vector<NodeId>{0, 1}));
}

TEST(TransitiveClosureTest, CycleMembersMutuallyReachable) {
  Digraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  g.AddEdge(1, 2);
  auto tc = TransitiveClosure::Build(g);
  ASSERT_TRUE(tc.ok());
  EXPECT_TRUE(tc->Contains(0, 1));
  EXPECT_TRUE(tc->Contains(1, 0));
  EXPECT_TRUE(tc->Contains(0, 2));
  EXPECT_FALSE(tc->Contains(2, 1));
}

TEST(TransitiveClosureTest, BudgetEnforced) {
  Digraph g(10);
  for (NodeId i = 0; i + 1 < 10; ++i) g.AddEdge(i, i + 1);
  // A 10-chain has 45 connections.
  EXPECT_TRUE(TransitiveClosure::Build(g, 44).status().IsOutOfBudget());
  EXPECT_TRUE(TransitiveClosure::Build(g, 45).ok());
}

TEST(TransitiveClosureTest, MatchesBfsOnRandomGraphs) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Digraph g = testing::RandomDigraph(40, 100, seed);
    auto tc = TransitiveClosure::Build(g);
    ASSERT_TRUE(tc.ok());
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      std::vector<NodeId> reach = ReachableFrom(g, u);
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        bool expected = std::binary_search(reach.begin(), reach.end(), v);
        if (u == v) expected = true;
        EXPECT_EQ(tc->Contains(u, v), expected)
            << "seed " << seed << " pair " << u << "," << v;
      }
    }
  }
}

TEST(TransitiveClosureTest, CountMatchesBuild) {
  Digraph g = testing::RandomDag(80, 2.5, 9);
  auto tc = TransitiveClosure::Build(g);
  ASSERT_TRUE(tc.ok());
  EXPECT_EQ(TransitiveClosure::CountConnections(g), tc->NumConnections());
}

TEST(IncrementalClosureTest, MatchesBatchUnderEdgeStream) {
  Digraph g = testing::RandomDigraph(35, 90, 21);
  IncrementalClosure inc(g.NumNodes());
  for (const Edge& e : g.Edges()) inc.AddEdge(e.from, e.to);
  auto batch = TransitiveClosure::Build(g);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(inc.NumConnections(), batch->NumConnections());
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      EXPECT_EQ(inc.Contains(u, v), batch->Contains(u, v));
    }
  }
}

TEST(IncrementalClosureTest, AddEdgeReturnsDelta) {
  IncrementalClosure inc(4);
  EXPECT_EQ(inc.AddEdge(0, 1), 1u);
  EXPECT_EQ(inc.AddEdge(0, 1), 0u);  // duplicate
  EXPECT_EQ(inc.AddEdge(1, 2), 2u);  // (1,2) and (0,2)
  // Closing the cycle adds (1,0), (2,0), (2,1).
  EXPECT_EQ(inc.AddEdge(2, 0), 3u);
  // After the cycle all three are mutually connected: 6 ordered pairs.
  EXPECT_EQ(inc.NumConnections(), 6u);
}

TEST(IncrementalClosureTest, SelfEdgeIsNoop) {
  IncrementalClosure inc(2);
  EXPECT_EQ(inc.AddEdge(1, 1), 0u);
  EXPECT_EQ(inc.NumConnections(), 0u);
}

TEST(DistanceClosureTest, ShortestOfTwoPaths) {
  Digraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 3);
  g.AddEdge(0, 2);
  g.AddEdge(2, 3);
  g.AddEdge(0, 3);  // direct shortcut
  DistanceClosure dc = DistanceClosure::Build(g);
  EXPECT_EQ(dc.Dist(0, 3), std::optional<uint32_t>(1));
  EXPECT_EQ(dc.Dist(0, 0), std::optional<uint32_t>(0));
  EXPECT_EQ(dc.Dist(3, 0), std::nullopt);
}

TEST(DistanceClosureTest, MatchesBfsEverywhere) {
  Digraph g = testing::RandomDigraph(30, 70, 33);
  DistanceClosure dc = DistanceClosure::Build(g);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    auto bfs = BfsDistances(g, u);
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (u == v) continue;
      auto d = dc.Dist(u, v);
      if (bfs[v] == kUnreachable) {
        EXPECT_FALSE(d.has_value());
      } else {
        ASSERT_TRUE(d.has_value());
        EXPECT_EQ(*d, bfs[v]);
      }
    }
  }
}

// DistBatch must answer exactly like Dist for every pair, whatever the
// batch size. The graph mixes a random cyclic digraph with self-loops,
// a node with an empty row, one with a length-1 row and a self-loop-only
// node (empty row, Dist(u, u) == 0).
TEST(DistanceClosureTest, DistBatchMatchesDistPairForPair) {
  constexpr size_t kLanes = DistanceClosure::kDistBatchLanes;
  for (uint64_t seed : {51u, 52u, 53u}) {
    Digraph g = testing::RandomDigraph(60, 110, seed);
    for (NodeId v = 0; v < 60; v += 7) g.AddEdge(v, v);
    const NodeId isolated = g.AddNode();
    const NodeId one = g.AddNode();
    g.AddEdge(one, g.AddNode());
    const NodeId loop_only = g.AddNode();
    g.AddEdge(loop_only, loop_only);
    DistanceClosure dc = DistanceClosure::Build(g);
    ASSERT_TRUE(dc.Row(isolated).empty());
    ASSERT_EQ(dc.Row(one).size(), 1u);
    ASSERT_TRUE(dc.Row(loop_only).empty());

    // Every ordered pair, shuffled so each batch mixes rows.
    std::vector<NodeId> us, vs;
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        us.push_back(u);
        vs.push_back(v);
      }
    }
    Rng rng(seed);
    for (size_t k = us.size(); k > 1; --k) {
      size_t j = rng.NextBounded(k);
      std::swap(us[k - 1], us[j]);
      std::swap(vs[k - 1], vs[j]);
    }
    for (size_t batch : {size_t{1}, kLanes - 1, kLanes, kLanes + 1,
                         3 * kLanes + 5, us.size()}) {
      std::vector<uint32_t> out(us.size(), 12345);
      for (size_t first = 0; first < us.size(); first += batch) {
        const size_t len = std::min(batch, us.size() - first);
        dc.DistBatch(std::span(us).subspan(first, len),
                     std::span(vs).subspan(first, len),
                     std::span(out).subspan(first, len));
      }
      for (size_t k = 0; k < us.size(); ++k) {
        auto d = dc.Dist(us[k], vs[k]);
        ASSERT_EQ(out[k], d.value_or(kUnreachable))
            << "seed " << seed << " batch " << batch << " pair (" << us[k]
            << "," << vs[k] << ")";
      }
    }
    dc.DistBatch({}, {}, {});  // an empty batch is a no-op
  }
}

// The reference DistanceClosure::Build replaced: one full BfsDistances
// scan per source, then reverse rows by push_back and a per-row sort.
struct ReferenceRows {
  std::vector<std::vector<DistConnection>> rows;
  std::vector<std::vector<DistConnection>> reverse_rows;
  uint64_t connections = 0;
};

ReferenceRows BuildReference(const Digraph& g) {
  const size_t n = g.NumNodes();
  ReferenceRows ref;
  ref.rows.resize(n);
  ref.reverse_rows.resize(n);
  for (NodeId s = 0; s < n; ++s) {
    std::vector<uint32_t> dist = BfsDistances(g, s);
    for (NodeId v = 0; v < n; ++v) {
      if (v != s && dist[v] != kUnreachable) {
        ref.rows[s].push_back({v, dist[v]});
        ref.reverse_rows[v].push_back({s, dist[v]});
      }
    }
    ref.connections += ref.rows[s].size();
  }
  for (auto& row : ref.reverse_rows) {
    std::sort(row.begin(), row.end(),
              [](const DistConnection& a, const DistConnection& b) {
                return a.node < b.node;
              });
  }
  return ref;
}

// Sparse and dense cyclic digraphs with self-loops, a DAG, isolated
// nodes and a self-loop-only node: the output-sensitive build must give
// the reference's rows, reverse rows, counts and distances exactly,
// without a pool and over pools of 2 and 4 workers.
TEST(DistanceClosureTest, BuildMatchesFullScanReference) {
  struct Shape {
    size_t n;
    size_t m;  // 0 = a RandomDag with ~2 out-edges per node
  };
  const Shape shapes[] = {{0, 0}, {1, 0}, {200, 260}, {120, 700}, {90, 0}};
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  for (const Shape& shape : shapes) {
    for (uint64_t seed : {61u, 62u, 63u}) {
      Digraph g = shape.m == 0 && shape.n > 1
                      ? testing::RandomDag(shape.n, 2.0, seed)
                      : testing::RandomDigraph(shape.n, shape.m, seed);
      if (shape.n > 1) {
        for (NodeId v = 0; v < shape.n; v += 11) g.AddEdge(v, v);
        g.AddNode();  // isolated
        const NodeId loop_only = g.AddNode();
        g.AddEdge(loop_only, loop_only);
      }
      const ReferenceRows ref = BuildReference(g);
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2,
                               &pool4}) {
        const std::string where =
            "n=" + std::to_string(shape.n) + " m=" + std::to_string(shape.m) +
            " seed=" + std::to_string(seed) + " workers=" +
            std::to_string(pool == nullptr ? 0 : pool->NumWorkers());
        DistanceClosure dc = DistanceClosure::Build(g, pool);
        ASSERT_EQ(dc.NumNodes(), g.NumNodes()) << where;
        ASSERT_EQ(dc.NumConnections(), ref.connections) << where;
        std::vector<NodeId> us, vs;
        for (NodeId u = 0; u < g.NumNodes(); ++u) {
          ASSERT_TRUE(std::ranges::equal(dc.Row(u), ref.rows[u]))
              << where << " row " << u;
          ASSERT_TRUE(
              std::ranges::equal(dc.ReverseRow(u), ref.reverse_rows[u]))
              << where << " reverse row " << u;
          for (NodeId v = 0; v < g.NumNodes(); ++v) {
            us.push_back(u);
            vs.push_back(v);
          }
        }
        std::vector<uint32_t> batch(us.size());
        dc.DistBatch(us, vs, batch);
        for (size_t k = 0; k < us.size(); ++k) {
          const NodeId u = us[k];
          const NodeId v = vs[k];
          auto it = std::ranges::find(ref.rows[u], v, &DistConnection::node);
          const std::optional<uint32_t> expected =
              u == v ? std::optional<uint32_t>(0)
              : it == ref.rows[u].end() ? std::nullopt
                                        : std::optional<uint32_t>(it->dist);
          ASSERT_EQ(dc.Dist(u, v), expected)
              << where << " (" << u << "," << v << ")";
          ASSERT_EQ(batch[k], expected.value_or(kUnreachable))
              << where << " batch (" << u << "," << v << ")";
        }
      }
    }
  }
}

TEST(DistanceClosureTest, ReverseRowsConsistent) {
  Digraph g = testing::RandomDag(25, 2.0, 44);
  DistanceClosure dc = DistanceClosure::Build(g);
  uint64_t forward = 0, backward = 0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    forward += dc.Row(v).size();
    backward += dc.ReverseRow(v).size();
  }
  EXPECT_EQ(forward, backward);
  EXPECT_EQ(forward, dc.NumConnections());
}

}  // namespace
}  // namespace hopi
