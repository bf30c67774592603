// Property suite for the vectorized join kernels (twohop/join_kernel.h):
// every kernel, over packed and strided views, must be bit-identical to
// the scalar reference JoinLabelRanges on randomized and adversarial
// label shapes — empties, singletons, all-shared sets, interleaved
// disjoint sets, UINT32_MAX boundary centers, wrapping distance sums,
// want_distance on and off. Plus the dispatch rules, the forced-kernel
// degradation ladder, and the LabelSummary one-sidedness contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "twohop/cover.h"
#include "twohop/join_kernel.h"
#include "twohop/join_view.h"
#include "util/cpu.h"

namespace hopi::twohop {
namespace {

using Entries = std::vector<LabelEntry>;

LabelSummary SummaryOf(const Entries& entries) {
  LabelSummary s = LabelSummary::Empty();
  for (const LabelEntry& e : entries) s.Add(e.center);
  return s;
}

/// Packs entries into SoA columns; the arrays must outlive the view.
struct Packed {
  std::vector<uint32_t> centers, dists;
  LabelSummary summary;

  explicit Packed(const Entries& entries) : summary(SummaryOf(entries)) {
    for (const LabelEntry& e : entries) {
      centers.push_back(e.center);
      dists.push_back(e.dist);
    }
  }
  JoinView View() const {
    JoinView v;
    v.centers = centers.data();
    v.dists = dists.data();
    v.n = centers.size();
    v.summary = summary;
    return v;
  }
};

/// A 3-word-stride entry shaped like storage::TableRow — exercises the
/// strided-view path with a stride the real code uses.
struct WideEntry {
  uint32_t id;
  uint32_t center;
  uint32_t dist;
};

std::vector<WideEntry> Widen(const Entries& entries) {
  std::vector<WideEntry> wide;
  for (const LabelEntry& e : entries) wide.push_back({0, e.center, e.dist});
  return wide;
}

/// Asserts every supported kernel, over every layout, matches the
/// scalar reference for this probe.
void ExpectAllKernelsMatch(NodeId u, NodeId v, const Entries& lout,
                           const Entries& lin, bool want_distance) {
  LabelJoinResult golden = JoinLabelRanges(
      u, v, lout.data(), lout.size(), lin.data(), lin.size(), want_distance);
  Packed pout(lout), pin(lin);
  std::vector<WideEntry> wout = Widen(lout), win = Widen(lin);
  JoinView strided_out = JoinView::FromEntries(lout.data(), lout.size());
  JoinView strided_in = JoinView::FromEntries(lin.data(), lin.size());
  JoinView wide_out = JoinView::FromEntries(wout.data(), wout.size());
  JoinView wide_in = JoinView::FromEntries(win.data(), win.size());
  for (JoinKernel k : SupportedJoinKernels()) {
    for (auto [o, i, layout] :
         {std::tuple{pout.View(), pin.View(), "packed"},
          std::tuple{strided_out, strided_in, "stride2"},
          std::tuple{wide_out, wide_in, "stride3"}}) {
      LabelJoinResult got = JoinViews(u, v, o, i, want_distance, k);
      EXPECT_EQ(golden.connected, got.connected)
          << JoinKernelName(k) << " " << layout << " u=" << u << " v=" << v
          << " want_distance=" << want_distance;
      if (want_distance) {
        EXPECT_EQ(golden.distance, got.distance)
            << JoinKernelName(k) << " " << layout << " u=" << u << " v=" << v;
      }
    }
  }
}

Entries MakeLabel(const std::vector<uint32_t>& centers, uint32_t dist = 0) {
  Entries out;
  for (uint32_t c : centers) out.push_back({c, dist});
  return out;
}

TEST(JoinKernelTest, EmptyAndSingletonShapes) {
  for (bool wd : {false, true}) {
    ExpectAllKernelsMatch(1, 2, {}, {}, wd);
    ExpectAllKernelsMatch(1, 2, MakeLabel({5}), {}, wd);
    ExpectAllKernelsMatch(1, 2, {}, MakeLabel({5}), wd);
    ExpectAllKernelsMatch(1, 2, MakeLabel({5}), MakeLabel({5}), wd);
    ExpectAllKernelsMatch(1, 2, MakeLabel({5}), MakeLabel({6}), wd);
    // Self entries: u in Lin(v), v in Lout(u), both.
    ExpectAllKernelsMatch(1, 2, MakeLabel({9}), MakeLabel({1}), wd);
    ExpectAllKernelsMatch(1, 2, MakeLabel({2}), MakeLabel({9}), wd);
    ExpectAllKernelsMatch(1, 2, MakeLabel({2}), MakeLabel({1}), wd);
  }
}

TEST(JoinKernelTest, AllSharedAndInterleaved) {
  std::vector<uint32_t> shared, evens, odds;
  for (uint32_t i = 0; i < 64; ++i) {
    shared.push_back(i * 3 + 10);
    evens.push_back(i * 2 + 10);
    odds.push_back(i * 2 + 11);
  }
  for (bool wd : {false, true}) {
    ExpectAllKernelsMatch(1, 2, MakeLabel(shared, 1), MakeLabel(shared, 2),
                          wd);
    // Perfectly interleaved, zero overlap: the SIMD block compares must
    // not invent matches.
    ExpectAllKernelsMatch(1, 2, MakeLabel(evens), MakeLabel(odds), wd);
  }
}

TEST(JoinKernelTest, Uint32BoundaryCenters) {
  std::vector<uint32_t> hi;
  for (uint32_t i = 0; i < 16; ++i) hi.push_back(UINT32_MAX - 2 * i);
  std::sort(hi.begin(), hi.end());
  std::vector<uint32_t> hi_shifted = hi;
  for (uint32_t& c : hi_shifted) c -= 1;
  for (bool wd : {false, true}) {
    ExpectAllKernelsMatch(1, 2, MakeLabel(hi), MakeLabel(hi), wd);
    ExpectAllKernelsMatch(1, 2, MakeLabel(hi), MakeLabel(hi_shifted), wd);
    // UINT32_MAX as a probed node id (self-entry binary searches).
    ExpectAllKernelsMatch(UINT32_MAX, 2, MakeLabel(hi), MakeLabel(hi), wd);
    ExpectAllKernelsMatch(1, UINT32_MAX, MakeLabel(hi), MakeLabel(hi), wd);
  }
}

TEST(JoinKernelTest, DistanceSaturationWrapsLikeScalar) {
  // The scalar reference adds dists as uint32 and wraps; the kernels
  // must reproduce that bit-for-bit, not saturate.
  Entries lout = {{100, UINT32_MAX}, {200, UINT32_MAX - 1}};
  Entries lin = {{100, 2}, {200, 1}};
  ExpectAllKernelsMatch(1, 2, lout, lin, /*want_distance=*/true);
  ExpectAllKernelsMatch(1, 2, lout, lin, /*want_distance=*/false);
}

TEST(JoinKernelTest, RandomizedAgainstScalarReference) {
  std::mt19937 rng(20260808);
  for (int iter = 0; iter < 300; ++iter) {
    // Mixed sizes with heavy skew every few iterations, so the gallop
    // and SIMD paths both see real work.
    // Mostly small universes (frequent overlap), with a skewed big-set
    // round every fifth iteration so gallop and SIMD see real work.
    bool skewed = iter % 5 == 0;
    size_t n1 = rng() % 50;
    size_t n2 = skewed ? rng() % 400 : rng() % 50;
    uint32_t universe = skewed ? 1000 + rng() % 1000 : 1 + rng() % 120;
    auto make = [&](size_t n) {
      n = std::min<size_t>(n, universe / 2 + 1);  // must fit the universe
      std::set<uint32_t> centers;
      while (centers.size() < n) centers.insert(rng() % universe);
      Entries entries;
      for (uint32_t c : centers) {
        uint32_t d = rng() % 8 == 0 ? UINT32_MAX
                                    : static_cast<uint32_t>(rng() % 1000);
        entries.push_back({c, d});
      }
      return entries;
    };
    Entries lout = make(n1), lin = make(n2);
    NodeId u = rng() % universe, v = rng() % universe;
    ExpectAllKernelsMatch(u, v, lout, lin, iter % 2 == 0);
  }
}

TEST(JoinKernelTest, SummaryNeverFalseNegative) {
  std::mt19937 rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    LabelSummary s = LabelSummary::Empty();
    std::vector<uint32_t> centers;
    size_t n = 1 + rng() % 40;
    for (size_t i = 0; i < n; ++i) {
      uint32_t c = rng();
      centers.push_back(c);
      s.Add(c);
    }
    for (uint32_t c : centers) {
      EXPECT_TRUE(s.MightContain(c)) << c;
    }
    // Any summary containing a shared center must intersect.
    LabelSummary other = LabelSummary::Empty();
    other.Add(centers[rng() % centers.size()]);
    other.Add(rng());
    EXPECT_TRUE(LabelSummary::MightIntersect(s, other));
  }
  EXPECT_FALSE(LabelSummary::Empty().MightContain(0));
  EXPECT_FALSE(
      LabelSummary::MightIntersect(LabelSummary::Empty(), LabelSummary::Empty()));
  EXPECT_TRUE(LabelSummary::Unknown().MightContain(12345));
}

TEST(JoinKernelTest, PrefilterRejectsOnlyTrueNegatives) {
  // Disjoint high-entropy center sets: the summaries usually reject,
  // and when they do not the kernels still answer correctly. Either
  // way JoinViews must agree with the scalar reference.
  std::mt19937 rng(99);
  for (int iter = 0; iter < 100; ++iter) {
    Entries lout, lin;
    std::set<uint32_t> used;
    for (int i = 0; i < 20; ++i) used.insert(rng());
    bool left = true;
    for (uint32_t c : used) {
      (left ? lout : lin).push_back({c, 0});
      left = !left;
    }
    ExpectAllKernelsMatch(rng(), rng(), lout, lin, false);
  }
}

TEST(JoinKernelTest, ParseAndNameRoundTrip) {
  for (JoinKernel k :
       {JoinKernel::kAuto, JoinKernel::kScalar, JoinKernel::kGallop,
        JoinKernel::kSSE2, JoinKernel::kAVX2}) {
    EXPECT_EQ(k, ParseJoinKernel(JoinKernelName(k)));
  }
  EXPECT_FALSE(ParseJoinKernel("avx512").has_value());
  EXPECT_FALSE(ParseJoinKernel("").has_value());
}

TEST(JoinKernelTest, DispatchHeuristics) {
  // The heuristic only decides genuine autos; a process-wide force
  // (e.g. HOPI_JOIN_KERNEL from the CI matrix) rightly preempts it.
  // Neutralize any force for the duration of these assertions.
  JoinKernel saved = ForcedJoinKernel();
  SetForcedJoinKernel(JoinKernel::kAuto);
  // Without SIMD in play (strided view), a 16x ratio gallops.
  EXPECT_EQ(JoinKernel::kGallop,
            ResolveJoinKernel(JoinKernel::kAuto, 64, 4, /*packed=*/false));
  // With a SIMD merge available the gallop crossover moves out to 128x:
  // 16x skew stays on the block merge, 128x gallops.
  if (util::CpuInfo().sse2 || util::CpuInfo().avx2) {
    EXPECT_NE(JoinKernel::kGallop,
              ResolveJoinKernel(JoinKernel::kAuto, 4, 64, /*packed=*/true));
    EXPECT_EQ(JoinKernel::kGallop,
              ResolveJoinKernel(JoinKernel::kAuto, 4, 512, /*packed=*/true));
  }
  // Empty side: scalar (nothing to vectorize).
  EXPECT_EQ(JoinKernel::kScalar,
            ResolveJoinKernel(JoinKernel::kAuto, 0, 64, /*packed=*/true));
  // Balanced packed sets pick the widest available SIMD.
  JoinKernel balanced =
      ResolveJoinKernel(JoinKernel::kAuto, 32, 32, /*packed=*/true);
  if (util::CpuInfo().avx2) {
    EXPECT_EQ(JoinKernel::kAVX2, balanced);
  } else if (util::CpuInfo().sse2) {
    EXPECT_EQ(JoinKernel::kSSE2, balanced);
  } else {
    EXPECT_EQ(JoinKernel::kScalar, balanced);
  }
  // Strided views never dispatch to SIMD.
  JoinKernel strided =
      ResolveJoinKernel(JoinKernel::kAuto, 32, 32, /*packed=*/false);
  EXPECT_EQ(JoinKernel::kScalar, strided);
  // Forced SIMD on a strided view degrades down the ladder.
  EXPECT_EQ(JoinKernel::kScalar,
            ResolveJoinKernel(JoinKernel::kAVX2, 32, 32, /*packed=*/false));
  // Forced gallop is honored regardless of shape.
  EXPECT_EQ(JoinKernel::kGallop,
            ResolveJoinKernel(JoinKernel::kGallop, 32, 32, /*packed=*/true));
  SetForcedJoinKernel(saved);
}

TEST(JoinKernelTest, ForcedKernelIsProcessWide) {
  JoinKernel saved = ForcedJoinKernel();
  SetForcedJoinKernel(JoinKernel::kGallop);
  EXPECT_EQ(JoinKernel::kGallop, ForcedJoinKernel());
  EXPECT_EQ(JoinKernel::kGallop,
            ResolveJoinKernel(JoinKernel::kAuto, 32, 32, /*packed=*/true));
  SetForcedJoinKernel(JoinKernel::kAuto);
  EXPECT_EQ(JoinKernel::kAuto, ForcedJoinKernel());
  SetForcedJoinKernel(saved);
}

TEST(JoinKernelTest, SupportedKernelsStartWithScalar) {
  std::vector<JoinKernel> kernels = SupportedJoinKernels();
  ASSERT_GE(kernels.size(), 2u);
  EXPECT_EQ(JoinKernel::kScalar, kernels[0]);
  EXPECT_EQ(JoinKernel::kGallop, kernels[1]);
  for (JoinKernel k : kernels) EXPECT_TRUE(JoinKernelSupported(k));
}

TEST(JoinKernelTest, CoverMirrorsStayCoherentUnderMutation) {
  // The cover's SoA mirrors feed the kernels; every mutator must keep
  // them in lockstep with the AoS labels.
  std::mt19937 rng(4242);
  TwoHopCover cover(64);
  for (int iter = 0; iter < 2000; ++iter) {
    NodeId node = rng() % 64;
    switch (rng() % 6) {
      case 0:
      case 1:
        cover.AddIn(node, rng() % 64, rng() % 10);
        break;
      case 2:
      case 3:
        cover.AddOut(node, rng() % 64, rng() % 10);
        break;
      case 4:
        cover.ClearNode(node);
        break;
      default: {
        Entries entries;
        uint32_t c = rng() % 8;
        for (int i = 0; i < 5; ++i, c += 1 + rng() % 8) {
          if (c != node) {
            entries.push_back({c, static_cast<uint32_t>(rng() % 10)});
          }
        }
        if (rng() % 2) {
          cover.SetIn(node, std::move(entries));
        } else {
          cover.SetOut(node, std::move(entries));
        }
      }
    }
    NodeId probe = rng() % 64;
    JoinView in = cover.InJoin(probe), out = cover.OutJoin(probe);
    const Entries& in_ref = cover.In(probe);
    const Entries& out_ref = cover.Out(probe);
    ASSERT_EQ(in_ref.size(), in.n);
    ASSERT_EQ(out_ref.size(), out.n);
    for (size_t i = 0; i < in.n; ++i) {
      ASSERT_EQ(in_ref[i].center, in.center(i));
      ASSERT_EQ(in_ref[i].dist, in.dist_at(i));
      ASSERT_TRUE(in.summary.MightContain(in_ref[i].center));
    }
    for (size_t i = 0; i < out.n; ++i) {
      ASSERT_EQ(out_ref[i].center, out.center(i));
      ASSERT_EQ(out_ref[i].dist, out.dist_at(i));
      ASSERT_TRUE(out.summary.MightContain(out_ref[i].center));
    }
    // And the kernel answers must match the scalar join on the raw
    // vectors.
    NodeId u = rng() % 64, v = rng() % 64;
    LabelJoinResult golden =
        JoinLabels(u, v, cover.Out(u), cover.In(v), /*want_distance=*/true);
    LabelJoinResult got = JoinViews(u, v, cover.OutJoin(u), cover.InJoin(v),
                                    /*want_distance=*/true);
    ASSERT_EQ(golden.connected, got.connected);
    ASSERT_EQ(golden.distance, got.distance);
  }
}

}  // namespace
}  // namespace hopi::twohop
