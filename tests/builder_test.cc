// Property tests for the greedy 2-hop cover builder: every build, on every
// graph shape, must produce a cover that is complete, sound and (in
// distance mode) metric-exact — checked by the exhaustive validator.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/closure.h"
#include "test_util.h"
#include "twohop/builder.h"

namespace hopi::twohop {
namespace {

Digraph Chain(size_t n) {
  Digraph g(n);
  for (NodeId i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1);
  return g;
}

Digraph BinaryTree(size_t n) {
  Digraph g(n);
  for (NodeId i = 1; i < n; ++i) g.AddEdge((i - 1) / 2, i);
  return g;
}

Digraph Diamond() {
  Digraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 3);
  return g;
}

TEST(CoverBuilderTest, EmptyGraph) {
  Digraph g(5);
  auto cover = BuildCover(g);
  ASSERT_TRUE(cover.ok());
  EXPECT_EQ(cover->Size(), 0u);
  EXPECT_TRUE(ValidateCover(*cover, g).ok());
}

TEST(CoverBuilderTest, SingleEdge) {
  Digraph g(2);
  g.AddEdge(0, 1);
  auto cover = BuildCover(g);
  ASSERT_TRUE(cover.ok());
  EXPECT_TRUE(ValidateCover(*cover, g).ok());
  EXPECT_TRUE(cover->IsConnected(0, 1));
  EXPECT_FALSE(cover->IsConnected(1, 0));
}

TEST(CoverBuilderTest, ChainCoverIsCompact) {
  Digraph g = Chain(32);
  auto cover = BuildCover(g);
  ASSERT_TRUE(cover.ok());
  EXPECT_TRUE(ValidateCover(*cover, g).ok());
  // A chain of n nodes has n(n-1)/2 = 496 connections; the 2-hop cover
  // must be far smaller than the closure.
  EXPECT_LT(cover->Size(), 200u);
}

TEST(CoverBuilderTest, DiamondAndTree) {
  for (const Digraph& g : {Diamond(), BinaryTree(31)}) {
    auto cover = BuildCover(g);
    ASSERT_TRUE(cover.ok());
    EXPECT_TRUE(ValidateCover(*cover, g).ok());
  }
}

TEST(CoverBuilderTest, CyclicGraph) {
  Digraph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);  // 3-cycle
  g.AddEdge(2, 3);
  g.AddEdge(3, 4);
  g.AddEdge(4, 3);  // 2-cycle downstream
  g.AddEdge(4, 5);
  auto cover = BuildCover(g);
  ASSERT_TRUE(cover.ok());
  EXPECT_TRUE(ValidateCover(*cover, g).ok());
  EXPECT_TRUE(cover->IsConnected(0, 5));
  EXPECT_TRUE(cover->IsConnected(1, 0));  // via the cycle
}

TEST(CoverBuilderTest, SelfLoop) {
  Digraph g(3);
  g.AddEdge(0, 0);
  g.AddEdge(0, 1);
  auto cover = BuildCover(g);
  ASSERT_TRUE(cover.ok());
  EXPECT_TRUE(ValidateCover(*cover, g).ok());
}

TEST(CoverBuilderTest, StatsArepopulated) {
  Digraph g = testing::RandomDag(50, 2.0, 3);
  CoverBuildStats stats;
  auto cover = BuildCover(g, {}, &stats);
  ASSERT_TRUE(cover.ok());
  EXPECT_GT(stats.initial_connections, 0u);
  EXPECT_GT(stats.centers_chosen, 0u);
  EXPECT_GE(stats.densest_recomputations, stats.centers_chosen);
}

TEST(CoverBuilderTest, CompressionBeatsClosureOnDags) {
  Digraph g = testing::RandomDag(120, 3.0, 8);
  auto tc = TransitiveClosure::Build(g);
  ASSERT_TRUE(tc.ok());
  auto cover = BuildCover(g);
  ASSERT_TRUE(cover.ok());
  ASSERT_TRUE(ValidateCover(*cover, g).ok());
  // The whole point of HOPI: |L| << |T|.
  EXPECT_LT(cover->Size(), tc->NumConnections());
}

TEST(CoverBuilderTest, PreselectedCentersStillValid) {
  Digraph g = testing::RandomDag(40, 2.0, 12);
  CoverBuildOptions options;
  options.preselect_centers = {5, 17, 30};
  CoverBuildStats stats;
  auto cover = BuildCover(g, options, &stats);
  ASSERT_TRUE(cover.ok());
  EXPECT_TRUE(ValidateCover(*cover, g).ok());
}

TEST(CoverBuilderTest, PreselectionCoversThroughCenter) {
  // 0 -> 1 -> 2: preselecting center 1 covers everything up front.
  Digraph g = Chain(3);
  CoverBuildOptions options;
  options.preselect_centers = {1};
  CoverBuildStats stats;
  auto cover = BuildCover(g, options, &stats);
  ASSERT_TRUE(cover.ok());
  EXPECT_TRUE(ValidateCover(*cover, g).ok());
  EXPECT_EQ(stats.preselect_covered, 3u);  // (0,1) (0,2) (1,2)
  EXPECT_EQ(stats.centers_chosen, 0u);     // greedy loop had nothing left
}

// ---- Parameterized property sweep: random DAGs ----

struct DagParams {
  size_t nodes;
  double avg_out;
  uint64_t seed;
};

class CoverBuilderDagProperty : public ::testing::TestWithParam<DagParams> {};

TEST_P(CoverBuilderDagProperty, ValidOnRandomDag) {
  const DagParams& p = GetParam();
  Digraph g = testing::RandomDag(p.nodes, p.avg_out, p.seed);
  auto cover = BuildCover(g);
  ASSERT_TRUE(cover.ok());
  EXPECT_TRUE(ValidateCover(*cover, g).ok()) << "nodes=" << p.nodes
                                             << " seed=" << p.seed;
}

TEST_P(CoverBuilderDagProperty, ValidWithDistanceOnRandomDag) {
  const DagParams& p = GetParam();
  Digraph g = testing::RandomDag(p.nodes, p.avg_out, p.seed);
  CoverBuildOptions options;
  options.with_distance = true;
  auto cover = BuildCover(g, options);
  ASSERT_TRUE(cover.ok());
  EXPECT_TRUE(ValidateCover(*cover, g, /*check_distances=*/true).ok())
      << "nodes=" << p.nodes << " seed=" << p.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CoverBuilderDagProperty,
    ::testing::Values(DagParams{10, 1.5, 1}, DagParams{10, 3.0, 2},
                      DagParams{25, 1.0, 3}, DagParams{25, 2.5, 4},
                      DagParams{40, 2.0, 5}, DagParams{40, 4.0, 6},
                      DagParams{60, 1.5, 7}, DagParams{60, 3.0, 8},
                      DagParams{80, 2.0, 9}, DagParams{15, 5.0, 10}));

// ---- Parameterized property sweep: random cyclic digraphs ----

struct DigraphParams {
  size_t nodes;
  size_t edges;
  uint64_t seed;
};

class CoverBuilderCyclicProperty
    : public ::testing::TestWithParam<DigraphParams> {};

TEST_P(CoverBuilderCyclicProperty, ValidOnRandomDigraph) {
  const DigraphParams& p = GetParam();
  Digraph g = testing::RandomDigraph(p.nodes, p.edges, p.seed);
  auto cover = BuildCover(g);
  ASSERT_TRUE(cover.ok());
  EXPECT_TRUE(ValidateCover(*cover, g).ok()) << "seed=" << p.seed;
}

TEST_P(CoverBuilderCyclicProperty, ValidWithDistance) {
  const DigraphParams& p = GetParam();
  Digraph g = testing::RandomDigraph(p.nodes, p.edges, p.seed);
  CoverBuildOptions options;
  options.with_distance = true;
  auto cover = BuildCover(g, options);
  ASSERT_TRUE(cover.ok());
  EXPECT_TRUE(ValidateCover(*cover, g, /*check_distances=*/true).ok())
      << "seed=" << p.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CoverBuilderCyclicProperty,
    ::testing::Values(DigraphParams{8, 12, 11}, DigraphParams{12, 30, 12},
                      DigraphParams{20, 40, 13}, DigraphParams{20, 80, 14},
                      DigraphParams{30, 60, 15}, DigraphParams{30, 120, 16},
                      DigraphParams{40, 70, 17}, DigraphParams{50, 100, 18}));

TEST(CoverBuilderDistanceTest, ExactDistancesOnDiamond) {
  Digraph g = Diamond();
  g.AddEdge(0, 3);  // shortcut of length 1 beside two length-2 paths
  CoverBuildOptions options;
  options.with_distance = true;
  auto cover = BuildCover(g, options);
  ASSERT_TRUE(cover.ok());
  ASSERT_TRUE(ValidateCover(*cover, g, true).ok());
  EXPECT_EQ(*cover->Distance(0, 3), 1u);
}

TEST(CoverBuilderDistanceTest, LongChainDistances) {
  Digraph g(20);
  for (NodeId i = 0; i + 1 < 20; ++i) g.AddEdge(i, i + 1);
  CoverBuildOptions options;
  options.with_distance = true;
  auto cover = BuildCover(g, options);
  ASSERT_TRUE(cover.ok());
  ASSERT_TRUE(ValidateCover(*cover, g, true).ok());
  EXPECT_EQ(*cover->Distance(0, 19), 19u);
  EXPECT_EQ(*cover->Distance(5, 6), 1u);
}

TEST(CoverBuilderTest, BuildCoverIsTheOneEntryPoint) {
  // Plain and distance builds both take the graph alone; each computes
  // the closure it reads.
  Digraph g = testing::RandomDag(30, 2.0, 77);
  for (bool with_distance : {false, true}) {
    CoverBuildOptions options;
    options.with_distance = with_distance;
    auto cover = BuildCover(g, options);
    ASSERT_TRUE(cover.ok());
    EXPECT_TRUE(ValidateCover(*cover, g, with_distance).ok());
  }
}

// ---- Parallel build determinism (the snapshot/commit protocol must
// reproduce the sequential build bit for bit) ----

void ExpectCoversIdentical(const TwoHopCover& a, const TwoHopCover& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  EXPECT_EQ(a.Size(), b.Size());
  for (NodeId v = 0; v < a.NumNodes(); ++v) {
    EXPECT_EQ(a.In(v), b.In(v)) << "Lin mismatch at node " << v;
    EXPECT_EQ(a.Out(v), b.Out(v)) << "Lout mismatch at node " << v;
  }
}

class CoverBuilderParallelParity
    : public ::testing::TestWithParam<bool> {};  // param = with_distance

TEST_P(CoverBuilderParallelParity, ParallelCoverIdenticalToSequential) {
  const bool with_distance = GetParam();
  for (uint64_t seed : {21u, 22u, 23u}) {
    Digraph g = testing::RandomDag(60, 2.5, seed);
    CoverBuildOptions sequential;
    sequential.with_distance = with_distance;
    sequential.num_threads = 1;
    CoverBuildStats seq_stats;
    auto base = BuildCover(g, sequential, &seq_stats);
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE(ValidateCover(*base, g, with_distance).ok());
    for (size_t threads : {2u, 4u, 8u}) {
      CoverBuildOptions parallel = sequential;
      parallel.num_threads = threads;
      CoverBuildStats par_stats;
      auto cover = BuildCover(g, parallel, &par_stats);
      ASSERT_TRUE(cover.ok());
      EXPECT_TRUE(ValidateCover(*cover, g, with_distance).ok())
          << "threads=" << threads << " seed=" << seed;
      ExpectCoversIdentical(*base, *cover);
      // The pop/commit sequence is identical, so the sequence-driven
      // counters must match; only the speculation accounting may differ.
      EXPECT_EQ(par_stats.centers_chosen, seq_stats.centers_chosen);
      EXPECT_EQ(par_stats.queue_reinsertions, seq_stats.queue_reinsertions);
      EXPECT_GE(par_stats.densest_recomputations,
                seq_stats.densest_recomputations);
      EXPECT_GE(par_stats.speculative_evaluations,
                par_stats.speculative_wasted);
    }
  }
}

TEST_P(CoverBuilderParallelParity, ParallelCoverIdenticalOnCyclicGraphs) {
  const bool with_distance = GetParam();
  Digraph g = testing::RandomDigraph(30, 90, 24);
  CoverBuildOptions sequential;
  sequential.with_distance = with_distance;
  auto base = BuildCover(g, sequential);
  ASSERT_TRUE(base.ok());
  for (size_t threads : {2u, 4u, 8u}) {
    CoverBuildOptions parallel = sequential;
    parallel.num_threads = threads;
    auto cover = BuildCover(g, parallel);
    ASSERT_TRUE(cover.ok());
    EXPECT_TRUE(ValidateCover(*cover, g, with_distance).ok());
    ExpectCoversIdentical(*base, *cover);
  }
}

TEST_P(CoverBuilderParallelParity, SpeculationBatchNeverChangesTheCover) {
  const bool with_distance = GetParam();
  Digraph g = testing::RandomDag(50, 3.0, 25);
  CoverBuildOptions sequential;
  sequential.with_distance = with_distance;
  auto base = BuildCover(g, sequential);
  ASSERT_TRUE(base.ok());
  for (uint32_t batch : {1u, 3u, 16u}) {
    CoverBuildOptions parallel = sequential;
    parallel.num_threads = 4;
    parallel.speculation_batch = batch;
    auto cover = BuildCover(g, parallel);
    ASSERT_TRUE(cover.ok());
    ExpectCoversIdentical(*base, *cover);
  }
}

TEST_P(CoverBuilderParallelParity, ParallelPreselectionParity) {
  const bool with_distance = GetParam();
  Digraph g = testing::RandomDag(40, 2.0, 26);
  CoverBuildOptions sequential;
  sequential.with_distance = with_distance;
  sequential.preselect_centers = {3, 11, 29};
  CoverBuildStats seq_stats;
  auto base = BuildCover(g, sequential, &seq_stats);
  ASSERT_TRUE(base.ok());
  CoverBuildOptions parallel = sequential;
  parallel.num_threads = 4;
  CoverBuildStats par_stats;
  auto cover = BuildCover(g, parallel, &par_stats);
  ASSERT_TRUE(cover.ok());
  ExpectCoversIdentical(*base, *cover);
  EXPECT_EQ(par_stats.preselect_covered, seq_stats.preselect_covered);
}

INSTANTIATE_TEST_SUITE_P(PlainAndDistance, CoverBuilderParallelParity,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Distance" : "Plain";
                         });

// ---- Golden covers ----
// The build is a pure function of (graph, options), so a fingerprint
// (entry count + FNV-1a over every Lin/Lout label, see
// testing::Fingerprint) pins the exact cover. These were recorded from the
// pairwise shortest-path-test center graphs; any faster build must still
// reproduce them bit for bit, for every thread count. Regenerate only for
// an intended cover change:
//   ./build/tests/builder_test --gtest_filter='CoverBuilderGolden.*'
// and copy the actual values from the failure messages.

/// w x h grid, edges right and down: every pair has many equal-length
/// shortest paths, so the shortest-path test ties often.
Digraph Grid(NodeId w, NodeId h) {
  Digraph g(static_cast<size_t>(w) * h);
  for (NodeId r = 0; r < h; ++r) {
    for (NodeId c = 0; c < w; ++c) {
      NodeId v = r * w + c;
      if (c + 1 < w) g.AddEdge(v, v + 1);
      if (r + 1 < h) g.AddEdge(v, v + w);
    }
  }
  return g;
}

/// Adds a self-loop on every `stride`-th node.
Digraph WithSelfLoops(Digraph g, NodeId stride) {
  for (NodeId v = 0; v < g.NumNodes(); v += stride) g.AddEdge(v, v);
  return g;
}

struct GoldenCase {
  std::string name;
  Digraph graph;
  bool with_distance;
  std::vector<NodeId> preselect;
  testing::CoverFingerprint expected;
};

TEST(CoverBuilderGolden, CoversMatchRecordedFingerprints) {
  const std::vector<GoldenCase> cases = {
      {"dag80_s31", testing::RandomDag(80, 2.5, 31), true, {},
       {339u, 0xfc8eacf19841420bULL}},
      {"dag80_s32", testing::RandomDag(80, 4.0, 32), true, {},
       {554u, 0x71c6b2c6bb9708bULL}},
      {"dag400_s38", testing::RandomDag(400, 3.0, 38), true, {},
       {4131u, 0x7fa04fe34bd4fbbaULL}},
      {"dag150_s33", testing::RandomDag(150, 2.0, 33), true, {},
       {635u, 0x9d39abd191bfd5a9ULL}},
      {"dag60_s37_preselect", testing::RandomDag(60, 3.0, 37), true,
       {3, 11, 29}, {269u, 0xe67704d2f543c320ULL}},
      {"cyclic50_s34_loops",
       WithSelfLoops(testing::RandomDigraph(50, 150, 34), 7), true, {},
       {540u, 0xfcd76b54fdd47617ULL}},
      {"cyclic60_s35_loops",
       WithSelfLoops(testing::RandomDigraph(60, 120, 35), 5), true, {},
       {423u, 0xdf94bdaadb6343cdULL}},
      {"cyclic40_s36", testing::RandomDigraph(40, 200, 36), true, {},
       {490u, 0x169fb528c022a8f5ULL}},
      {"cyclic200_s39_loops",
       WithSelfLoops(testing::RandomDigraph(200, 320, 39), 11), true, {},
       {1713u, 0x5503ee0746fe2598ULL}},
      {"grid9x7", Grid(9, 7), true, {}, {294u, 0x74bdf9bf412d70a3ULL}},
      {"grid9x7_plain", Grid(9, 7), false, {},
       {294u, 0x9d2f19cbc892736ULL}},
      {"dag80_s31_plain", testing::RandomDag(80, 2.5, 31), false, {},
       {237u, 0xaa949db09b2f69b7ULL}},
      {"cyclic50_s34_loops_plain",
       WithSelfLoops(testing::RandomDigraph(50, 150, 34), 7), false, {},
       {91u, 0x30ad3dc2aad681d4ULL}},
  };
  for (const GoldenCase& c : cases) {
    for (size_t threads : {1u, 3u}) {
      CoverBuildOptions options;
      options.with_distance = c.with_distance;
      options.preselect_centers = c.preselect;
      options.num_threads = threads;
      auto cover = BuildCover(c.graph, options);
      ASSERT_TRUE(cover.ok()) << c.name;
      EXPECT_EQ(testing::Fingerprint(*cover), c.expected)
          << c.name << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace hopi::twohop
