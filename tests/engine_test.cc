#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/backends.h"
#include "engine/engine.h"
#include "engine/engine_pool.h"
#include "engine/label_cache.h"
#include "engine/snapshot.h"
#include "hopi/build.h"
#include "query/path_query.h"
#include "storage/compress.h"
#include "storage/format.h"
#include "storage/linlout.h"
#include "test_util.h"
#include "twohop/join_kernel.h"

namespace hopi::engine {
namespace {

using collection::Collection;

/// One distance-aware index over a small DBLP-like collection, exposed
/// through all four backends (the mapped stores are round-tripped
/// through actual v3 and v4 files, so this suite also proves both
/// on-disk formats preserve every query shape).
class BackendParityFixture : public ::testing::Test {
 protected:
  virtual Collection MakeCollection() const {
    return hopi::testing::SmallDblp(40, 5);
  }

  void SetUp() override {
    c_ = MakeCollection();
    IndexBuildOptions options;
    options.with_distance = true;
    auto index = BuildIndex(&c_, options);
    ASSERT_TRUE(index.ok()) << index.status();
    index_ = std::make_unique<HopiIndex>(std::move(index).value());
    closure_ = std::make_unique<TransitiveClosureIndex>(
        TransitiveClosureIndex::Build(c_.ElementGraph(), true));
    store_path_ = ::testing::TempDir() + "hopi_engine_parity.bin";
    storage::StoreWriteOptions v3_options;
    v3_options.format_version = storage::kFormatVersion;
    ASSERT_TRUE(
        storage::WriteLinLoutFile(index_->cover(), true, store_path_, v3_options)
            .ok());
    auto mapped = storage::MappedLinLoutStore::Open(store_path_);
    ASSERT_TRUE(mapped.ok()) << mapped.status();
    mapped_store_ = std::make_unique<storage::MappedLinLoutStore>(
        std::move(mapped).value());
    // The same cover as a block-compressed v4 file. Tiny blocks force a
    // multi-block layout even on this test-sized cover, so block
    // routing and the cluster split actually get exercised.
    v4_path_ = ::testing::TempDir() + "hopi_engine_parity_v4.bin";
    storage::StoreWriteOptions v4_options;
    v4_options.compress.target_block_bytes = 256;
    v4_options.compress.cluster_split_bytes = 64;
    ASSERT_TRUE(
        storage::WriteLinLoutFile(index_->cover(), true, v4_path_, v4_options)
            .ok());
    auto mapped_v4 = storage::MappedLinLoutStore::Open(v4_path_);
    ASSERT_TRUE(mapped_v4.ok()) << mapped_v4.status();
    mapped_v4_store_ = std::make_unique<storage::MappedLinLoutStore>(
        std::move(mapped_v4).value());
    ASSERT_TRUE(mapped_v4_store_->compressed());
    backends_.push_back(std::make_unique<HopiIndexBackend>(*index_));
    backends_.push_back(std::make_unique<ClosureBackend>(*closure_, true));
    backends_.push_back(std::make_unique<MappedLinLoutBackend>(*mapped_store_));
    backends_.push_back(
        std::make_unique<MappedLinLoutBackend>(*mapped_v4_store_));
  }

  void TearDown() override {
    std::remove(store_path_.c_str());
    std::remove(v4_path_.c_str());
  }

  Collection c_;
  std::unique_ptr<HopiIndex> index_;
  std::unique_ptr<TransitiveClosureIndex> closure_;
  std::unique_ptr<storage::MappedLinLoutStore> mapped_store_;
  std::unique_ptr<storage::MappedLinLoutStore> mapped_v4_store_;
  std::string store_path_;
  std::string v4_path_;
  std::vector<std::unique_ptr<ReachabilityBackend>> backends_;
};

TEST_F(BackendParityFixture, ReachabilityAndDistanceAgree) {
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(c_.NumElements()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(c_.NumElements()));
    bool expect_reach = backends_[0]->IsReachable(u, v);
    auto expect_dist = backends_[0]->Distance(u, v);
    for (size_t b = 1; b < backends_.size(); ++b) {
      EXPECT_EQ(backends_[b]->IsReachable(u, v), expect_reach)
          << backends_[b]->Name() << " " << u << "->" << v;
      EXPECT_EQ(backends_[b]->Distance(u, v), expect_dist)
          << backends_[b]->Name() << " " << u << "->" << v;
    }
  }
}

TEST_F(BackendParityFixture, AxisEnumerationAgrees) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(c_.NumElements()));
    auto expect_desc = backends_[0]->Descendants(u);
    auto expect_anc = backends_[0]->Ancestors(u);
    for (size_t b = 1; b < backends_.size(); ++b) {
      EXPECT_EQ(backends_[b]->Descendants(u), expect_desc)
          << backends_[b]->Name() << " node " << u;
      EXPECT_EQ(backends_[b]->Ancestors(u), expect_anc)
          << backends_[b]->Name() << " node " << u;
    }
  }
}

TEST_F(BackendParityFixture, DefaultTestConnectionsMatchesScalar) {
  Rng rng(17);
  std::vector<NodePair> pairs;
  for (int i = 0; i < 200; ++i) {
    pairs.push_back({static_cast<NodeId>(rng.NextBounded(c_.NumElements())),
                     static_cast<NodeId>(rng.NextBounded(c_.NumElements()))});
  }
  for (const auto& backend : backends_) {
    std::vector<bool> bulk = backend->TestConnections(pairs);
    ASSERT_EQ(bulk.size(), pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(bulk[i],
                backend->IsReachable(pairs[i].first, pairs[i].second));
    }
  }
}

TEST_F(BackendParityFixture, PathQueryParityAcrossBackends) {
  query::TagIndex tags(c_);
  for (const char* q : {"//inproceedings//cite//title",
                        "//inproceedings//author", "//abstract//sentence"}) {
    auto expr = query::PathExpression::Parse(q);
    ASSERT_TRUE(expr.ok());
    auto expect = query::EvaluatePath(*expr, *backends_[0], c_, tags);
    ASSERT_TRUE(expect.ok());
    auto expect_count = query::CountPathResults(*expr, *backends_[0], c_, tags);
    ASSERT_TRUE(expect_count.ok());
    for (size_t b = 1; b < backends_.size(); ++b) {
      auto matches = query::EvaluatePath(*expr, *backends_[b], c_, tags);
      ASSERT_TRUE(matches.ok());
      ASSERT_EQ(matches->size(), expect->size()) << backends_[b]->Name();
      for (size_t i = 0; i < matches->size(); ++i) {
        EXPECT_EQ((*matches)[i].bindings, (*expect)[i].bindings)
            << backends_[b]->Name() << " " << q << " match " << i;
        EXPECT_EQ((*matches)[i].total_distance, (*expect)[i].total_distance);
        EXPECT_DOUBLE_EQ((*matches)[i].score, (*expect)[i].score);
      }
      auto count = query::CountPathResults(*expr, *backends_[b], c_, tags);
      ASSERT_TRUE(count.ok());
      EXPECT_EQ(*count, *expect_count) << backends_[b]->Name() << " " << q;
    }
  }
}

// ---- the facade ----

class QueryEngineFixture : public BackendParityFixture {
 protected:
  void SetUp() override {
    BackendParityFixture::SetUp();
    engines_.push_back(
        std::make_unique<QueryEngine>(QueryEngine::ForIndex(*index_)));
    engines_.push_back(std::make_unique<QueryEngine>(
        QueryEngine::ForClosure(c_, *closure_, true)));
    engines_.push_back(std::make_unique<QueryEngine>(
        QueryEngine::ForMappedStore(c_, *mapped_store_)));
    engines_.push_back(std::make_unique<QueryEngine>(
        QueryEngine::ForMappedStore(c_, *mapped_v4_store_)));
  }

  std::vector<NodePair> RandomPairs(size_t n, uint64_t seed) const {
    Rng rng(seed);
    std::vector<NodePair> pairs;
    for (size_t i = 0; i < n; ++i) {
      pairs.push_back(
          {static_cast<NodeId>(rng.NextBounded(c_.NumElements())),
           static_cast<NodeId>(rng.NextBounded(c_.NumElements()))});
    }
    return pairs;
  }

  std::vector<std::unique_ptr<QueryEngine>> engines_;
};

TEST_F(QueryEngineFixture, ScalarReachabilityMatchesBackend) {
  for (const auto& engine : engines_) {
    ReachabilityResponse r =
        engine->Reachability({.source = 0, .target = 1, .want_distance = true});
    EXPECT_EQ(r.reachable, engine->backend().IsReachable(0, 1));
    if (r.reachable) {
      EXPECT_EQ(r.distance, engine->backend().Distance(0, 1));
    }
  }
}

TEST_F(QueryEngineFixture, BatchMatchesScalarAcrossAllBackends) {
  std::vector<NodePair> pairs = RandomPairs(300, 19);
  // Append duplicates and reflexive probes.
  for (size_t i = 0; i < 100; ++i) pairs.push_back(pairs[i]);
  pairs.push_back({7, 7});
  for (const auto& engine : engines_) {
    BatchResponse r = engine->Batch({.pairs = pairs, .want_distances = true});
    ASSERT_EQ(r.reachable.size(), pairs.size());
    ASSERT_EQ(r.distances.size(), pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      auto [u, v] = pairs[i];
      EXPECT_EQ(r.reachable[i], engine->backend().IsReachable(u, v))
          << engine->backend().Name() << " " << u << "->" << v;
      EXPECT_EQ(r.distances[i], engine->backend().Distance(u, v))
          << engine->backend().Name() << " " << u << "->" << v;
    }
  }
}

/// Pins the process-wide join kernel for one scope; restores heuristic
/// dispatch on exit so test order cannot leak a forced kernel.
class ScopedJoinKernel {
 public:
  explicit ScopedJoinKernel(twohop::JoinKernel k) {
    twohop::SetForcedJoinKernel(k);
  }
  ~ScopedJoinKernel() {
    twohop::SetForcedJoinKernel(twohop::JoinKernel::kAuto);
  }
};

TEST_F(QueryEngineFixture, AllJoinKernelsAgreeAcrossAllBackends) {
  // The CI matrix forces each kernel via HOPI_JOIN_KERNEL; this is the
  // in-process equivalent: every supported kernel must answer every
  // probe shape identically through all four backends — scalar and
  // batch, reachability and distance — on top of the per-kernel
  // property suite in join_kernel_test.
  std::vector<NodePair> pairs = RandomPairs(400, 23);
  pairs.push_back({3, 3});
  std::vector<bool> golden_reach;
  std::vector<std::optional<uint32_t>> golden_dist;
  {
    ScopedJoinKernel pin(twohop::JoinKernel::kScalar);
    for (auto [u, v] : pairs) {
      golden_reach.push_back(backends_[0]->IsReachable(u, v));
      golden_dist.push_back(backends_[0]->Distance(u, v));
    }
  }
  for (twohop::JoinKernel kernel : twohop::SupportedJoinKernels()) {
    ScopedJoinKernel pin(kernel);
    for (const auto& backend : backends_) {
      for (size_t i = 0; i < pairs.size(); ++i) {
        auto [u, v] = pairs[i];
        EXPECT_EQ(golden_reach[i], backend->IsReachable(u, v))
            << backend->Name() << " kernel " << twohop::JoinKernelName(kernel)
            << " " << u << "->" << v;
        EXPECT_EQ(golden_dist[i], backend->Distance(u, v))
            << backend->Name() << " kernel " << twohop::JoinKernelName(kernel)
            << " " << u << "->" << v;
      }
    }
    for (const auto& engine : engines_) {
      BatchResponse r =
          engine->Batch({.pairs = pairs, .want_distances = true});
      ASSERT_TRUE(r.error.ok());
      for (size_t i = 0; i < pairs.size(); ++i) {
        EXPECT_EQ(golden_reach[i], r.reachable[i])
            << engine->backend().Name() << " kernel "
            << twohop::JoinKernelName(kernel);
        EXPECT_EQ(golden_dist[i], r.distances[i])
            << engine->backend().Name() << " kernel "
            << twohop::JoinKernelName(kernel);
      }
    }
  }
  // Forcing a kernel the host cannot run must degrade, not break: the
  // answers stay correct even when kAVX2 is pinned on a non-AVX2 box.
  ScopedJoinKernel pin(twohop::JoinKernel::kAVX2);
  for (size_t i = 0; i < pairs.size(); ++i) {
    auto [u, v] = pairs[i];
    EXPECT_EQ(golden_reach[i], backends_[0]->IsReachable(u, v));
  }
}

TEST_F(QueryEngineFixture, BatchDedupesRepeatedProbes) {
  QueryEngine& engine = *engines_[3];  // block-compressed mmap store
  // A source with LOUT rows, so its label takes the block route.
  NodeId u = 0;
  while (!mapped_v4_store_->LoutBlockHandle(u)) ++u;
  std::vector<NodePair> pairs;
  for (int rep = 0; rep < 10; ++rep) {
    for (NodeId v = 0; v < 20; ++v) pairs.push_back({u, v});
  }
  BatchResponse r = engine.Batch({.pairs = pairs});
  EXPECT_EQ(r.stats.probes, 200u);
  EXPECT_EQ(r.stats.unique_probes, 20u);
  // Two label fetches per distinct non-reflexive pair (the (u,u) probe,
  // if any, needs no labels), each taking exactly one route.
  size_t non_reflexive = u < 20 ? 19 : 20;
  EXPECT_EQ(r.stats.cache_hits + r.stats.cache_misses +
                r.stats.labels_borrowed,
            2u * non_reflexive);
  // LOUT(u) decodes once and is reused within the batch.
  EXPECT_GE(r.stats.cache_hits, non_reflexive - 1);
  EXPECT_EQ(r.stats.backend_probes, 0u);

  // A wide batch over few distinct pairs: 4,096 probes drawn from 64
  // pairs, among them reflexive probes, the first and last ids, and
  // pairs whose 64-bit keys ((u << 32) | v) agree in their low 32 bits
  // or differ only there.
  const auto n = static_cast<NodeId>(c_.NumElements());
  std::vector<NodePair> distinct;
  auto add = [&](NodePair p) {
    if (distinct.size() < 64 &&
        std::find(distinct.begin(), distinct.end(), p) == distinct.end()) {
      distinct.push_back(p);
    }
  };
  for (NodePair p : std::vector<NodePair>{
           {0, 0}, {n - 1, n - 1}, {0, n - 1}, {n - 1, 0}, {5, 5}, {u, u}}) {
    add(p);
  }
  for (NodeId k = 1; distinct.size() < 40; ++k) {
    add({k, 3});  // same low half, u varies
    add({3 + k, 4 + k});
  }
  for (NodeId k = 0; distinct.size() < 64; ++k) {
    add({9, (k * 7) % n});  // same high half, v varies
  }
  Rng rng(4096);
  std::vector<NodePair> wide;
  for (const NodePair& p : distinct) wide.push_back(p);  // each at least once
  while (wide.size() < 4096) {
    wide.push_back(distinct[rng.NextBounded(distinct.size())]);
  }
  for (const auto& e : engines_) {
    BatchResponse w = e->Batch({.pairs = wide, .want_distances = true});
    ASSERT_TRUE(w.error.ok()) << w.error;
    EXPECT_EQ(w.stats.probes, 4096u);
    EXPECT_EQ(w.stats.unique_probes, 64u) << e->backend().Name();
    ASSERT_EQ(w.reachable.size(), wide.size());
    ASSERT_EQ(w.distances.size(), wide.size());
    for (size_t i = 0; i < wide.size(); ++i) {
      auto [a, b] = wide[i];
      ASSERT_EQ(w.reachable[i], closure_->IsReachable(a, b))
          << e->backend().Name() << " probe " << i << ": " << a << "->" << b;
      ASSERT_EQ(w.distances[i], closure_->Distance(a, b))
          << e->backend().Name() << " probe " << i << ": " << a << "->" << b;
    }
  }
}

TEST_F(QueryEngineFixture, HopiBackendBorrowsLabelsZeroCopy) {
  QueryEngine& engine = *engines_[0];  // in-memory cover backend
  std::vector<NodePair> pairs;
  for (int rep = 0; rep < 10; ++rep) {
    for (NodeId v = 0; v < 20; ++v) pairs.push_back({0, v});
  }
  BatchResponse r = engine.Batch({.pairs = pairs});
  EXPECT_EQ(r.stats.unique_probes, 20u);
  // In-memory labels are borrowed straight from the cover: no cache
  // traffic, no backend probes, two borrows per non-reflexive pair.
  EXPECT_EQ(r.stats.labels_borrowed, 2u * 19u);
  EXPECT_EQ(r.stats.cache_hits + r.stats.cache_misses, 0u);
  EXPECT_EQ(r.stats.backend_probes, 0u);
}

TEST_F(QueryEngineFixture, RepeatedBatchServedFromLabelCache) {
  QueryEngine& engine = *engines_[3];  // block-compressed mmap store
  std::vector<NodePair> pairs = RandomPairs(100, 23);
  BatchResponse first = engine.Batch({.pairs = pairs});
  EXPECT_GT(first.stats.cache_misses, 0u);
  BatchResponse second = engine.Batch({.pairs = pairs});
  // Every label set is hot now (cache capacity far exceeds the pool).
  EXPECT_EQ(second.stats.cache_misses, 0u);
  EXPECT_GT(second.stats.cache_hits, 0u);
  EXPECT_EQ(second.reachable, first.reachable);
}

TEST_F(QueryEngineFixture, MappedBackendBorrowsSpansZeroCopy) {
  QueryEngine& engine = *engines_[2];  // mmap-backed v3 store
  std::vector<NodePair> pairs;
  for (int rep = 0; rep < 10; ++rep) {
    for (NodeId v = 0; v < 20; ++v) pairs.push_back({0, v});
  }
  BatchResponse r = engine.Batch({.pairs = pairs});
  EXPECT_EQ(r.stats.unique_probes, 20u);
  // Labels are lent as spans over the file image: no cache traffic, no
  // backend probes, two borrows per non-reflexive unique pair — the
  // same profile as the in-memory cover, straight off disk.
  EXPECT_EQ(r.stats.labels_borrowed, 2u * 19u);
  EXPECT_EQ(r.stats.cache_hits + r.stats.cache_misses, 0u);
  EXPECT_EQ(r.stats.backend_probes, 0u);
  EXPECT_EQ(engine.label_cache().size(), 0u);
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(r.reachable[i],
              engine.backend().IsReachable(pairs[i].first, pairs[i].second));
  }
}

TEST_F(QueryEngineFixture, MappedV4BackendDecodesBlocksThroughCache) {
  QueryEngine& engine = *engines_[3];  // block-compressed mmap store
  std::vector<NodePair> pairs = RandomPairs(200, 37);
  size_t non_reflexive = 0;
  {
    std::vector<NodePair> unique;
    for (const auto& p : pairs) {
      if (std::find(unique.begin(), unique.end(), p) == unique.end()) {
        unique.push_back(p);
        if (p.first != p.second) ++non_reflexive;
      }
    }
  }
  BatchResponse cold = engine.Batch({.pairs = pairs});
  ASSERT_TRUE(cold.error.ok()) << cold.error;
  // Every label fetch takes exactly one route; empty rows are borrowed
  // (the one label a compressed store never decodes), the rest flow
  // through the block cache.
  EXPECT_EQ(cold.stats.cache_hits + cold.stats.cache_misses +
                cold.stats.labels_borrowed,
            2u * non_reflexive);
  EXPECT_GT(cold.stats.blocks_decoded, 0u);
  EXPECT_LE(cold.stats.blocks_decoded, cold.stats.cache_misses);
  EXPECT_EQ(cold.stats.backend_probes, 0u);

  LabelCache::Stats stats = engine.CacheStats();
  EXPECT_EQ(stats.blocks_decoded, cold.stats.blocks_decoded);
  EXPECT_GT(stats.bytes_resident, 0u);
  EXPECT_LE(stats.bytes_resident, stats.byte_budget);
  EXPECT_GT(stats.decode_nanos, 0u);

  // Warm pass: everything is resident (default budget far exceeds this
  // cover), so no block is decoded twice and answers are bit-identical.
  BatchResponse warm = engine.Batch({.pairs = pairs});
  EXPECT_EQ(warm.stats.blocks_decoded, 0u);
  EXPECT_EQ(warm.stats.cache_misses, 0u);
  EXPECT_EQ(warm.reachable, cold.reachable);
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(cold.reachable[i],
              engine.backend().IsReachable(pairs[i].first, pairs[i].second));
  }
}

TEST_F(QueryEngineFixture, LabelLessBackendFallsBackToDirectProbes) {
  QueryEngine& engine = *engines_[1];  // closure backend: no labels
  std::vector<NodePair> pairs = RandomPairs(50, 29);
  pairs.push_back(pairs[0]);
  BatchResponse r = engine.Batch({.pairs = pairs});
  EXPECT_EQ(r.stats.cache_hits, 0u);
  EXPECT_EQ(r.stats.cache_misses, 0u);
  EXPECT_EQ(r.stats.backend_probes, r.stats.unique_probes);
  EXPECT_LT(r.stats.unique_probes, r.stats.probes);
}

/// Claims labels but lends none through either route: a broken
/// backend the engine must report as a typed error.
class RoutelessBackend final : public ReachabilityBackend {
 public:
  std::string_view Name() const override { return "routeless"; }
  bool with_distance() const override { return false; }
  bool IsReachable(NodeId u, NodeId v) const override { return u == v; }
  std::optional<uint32_t> Distance(NodeId, NodeId) const override {
    return std::nullopt;
  }
  std::vector<NodeId> Descendants(NodeId) const override { return {}; }
  std::vector<NodeId> Ancestors(NodeId) const override { return {}; }
  bool HasLabels() const override { return true; }
};

TEST_F(QueryEngineFixture, BackendLendingNoLabelIsATypedError) {
  QueryEngine engine(c_, std::make_unique<RoutelessBackend>());
  BatchResponse r = engine.Batch({.pairs = {{0, 1}, {2, 2}}});
  EXPECT_TRUE(r.error.IsInternal()) << r.error;
  EXPECT_NE(r.error.message().find("routeless"), std::string::npos);
  EXPECT_FALSE(r.reachable[0]);
  EXPECT_TRUE(r.reachable[1]);  // reflexive probes need no labels
}

TEST_F(QueryEngineFixture, QueryMatchesFreeFunctions) {
  query::TagIndex tags(c_);
  auto expr = query::PathExpression::Parse("//inproceedings//cite//title");
  ASSERT_TRUE(expr.ok());
  for (const auto& engine : engines_) {
    auto response = engine->Query({.expression = "//inproceedings//cite//title"});
    ASSERT_TRUE(response.ok()) << response.status();
    auto expect =
        query::EvaluatePath(*expr, engine->backend(), c_, tags);
    ASSERT_TRUE(expect.ok());
    ASSERT_EQ(response->matches.size(), expect->size());
    EXPECT_EQ(response->count, expect->size());
    for (size_t i = 0; i < expect->size(); ++i) {
      EXPECT_EQ(response->matches[i].bindings, (*expect)[i].bindings);
    }

    auto count = engine->Query(
        {.expression = "//inproceedings//cite//title", .count_only = true});
    ASSERT_TRUE(count.ok());
    auto expect_count =
        query::CountPathResults(*expr, engine->backend(), c_, tags);
    ASSERT_TRUE(expect_count.ok());
    EXPECT_EQ(count->count, *expect_count);
    EXPECT_TRUE(count->matches.empty());
  }
}

TEST_F(QueryEngineFixture, QueryRejectsMalformedExpression) {
  auto response = engines_[0]->Query({.expression = "//a/b"});
  EXPECT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsInvalidArgument());
}

TEST_F(QueryEngineFixture, SimilarityOptionExpandsApproximateSteps) {
  QueryEngineOptions options;
  options.similarity = query::TagSimilarity::DblpDefaults();
  QueryEngine engine = QueryEngine::ForIndex(*index_, std::move(options));
  auto exact = engine.Query({.expression = "//book//author"});
  auto approx = engine.Query({.expression = "//~book//author"});
  ASSERT_TRUE(exact.ok() && approx.ok());
  EXPECT_GE(approx->count, exact->count);
}

TEST_F(QueryEngineFixture, CorruptBlockFailsPathQueriesTyped) {
  // A lazily opened v4 store checks a block's CRC when it first decodes
  // it. A damaged LIN or LOUT row must then fail the whole path query
  // with Corruption, the way Batch reports it in `error` — never come
  // back as a shorter answer. `//*//*` reads every row of both sides.
  auto info = storage::InspectFile(v4_path_);
  ASSERT_TRUE(info.ok()) << info.status();
  const std::string path = ::testing::TempDir() + "hopi_engine_corrupt_v4.bin";
  for (storage::SectionV4 section :
       {storage::kV4LinBlob, storage::kV4LoutBlob}) {
    std::vector<std::byte> image = hopi::testing::ReadFileBytes(v4_path_);
    const storage::SectionRange& blob = info->sections[section];
    ASSERT_GT(blob.length, 0u);
    image[blob.offset + blob.length / 2] ^= std::byte{0x08};
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(image.data(), 1, image.size(), f), image.size());
    std::fclose(f);
    auto store = storage::MappedLinLoutStore::Open(
        path, {.verify_file_checksum = false});
    ASSERT_TRUE(store.ok()) << store.status();
    QueryEngine engine = QueryEngine::ForMappedStore(c_, *store);
    auto count = engine.Query({.expression = "//*//*", .count_only = true});
    EXPECT_TRUE(count.status().IsCorruption()) << count.status();
    auto matches = engine.Query({.expression = "//*//*"});
    EXPECT_TRUE(matches.status().IsCorruption()) << matches.status();
  }
  std::remove(path.c_str());
}

// ---- the path reducer against a pair-by-pair evaluator ----

using Candidates = std::vector<std::pair<NodeId, double>>;

/// The step candidates in evaluator order: tag lookup, synonyms sorted
/// by element, or every live element for `*`.
std::vector<Candidates> NaiveCandidates(
    const query::PathExpression& expr, const Collection& c,
    const query::TagIndex& tags, const query::PathQueryOptions& options) {
  std::vector<Candidates> steps;
  for (const query::PathStep& step : expr.steps) {
    Candidates cands;
    if (step.tag == "*") {
      for (NodeId e : hopi::testing::LiveElements(c)) cands.push_back({e, 1.0});
    } else if (step.approximate && options.similarity != nullptr) {
      for (const auto& [tag, sim] : options.similarity->Related(
               step.tag, options.min_tag_similarity)) {
        for (NodeId e : tags.Lookup(tag)) cands.push_back({e, sim});
      }
      std::sort(cands.begin(), cands.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
    } else {
      for (NodeId e : tags.Lookup(step.tag)) cands.push_back({e, 1.0});
    }
    steps.push_back(std::move(cands));
  }
  return steps;
}

/// The path semantics spelled out pair by pair with no reducer: bind a
/// candidate when the previous binding is a different element that
/// reaches it (within max_step_distance), stop at max_matches, then
/// stable-sort by score. `oracle` answers reachability and distance.
std::vector<query::PathMatch> NaiveMatches(
    const std::string& text, const ReachabilityBackend& oracle,
    const Collection& c, const query::TagIndex& tags,
    const query::PathQueryOptions& options) {
  auto expr = query::PathExpression::Parse(text);
  EXPECT_TRUE(expr.ok()) << text;
  const std::vector<Candidates> steps =
      NaiveCandidates(*expr, c, tags, options);
  const bool filter = options.max_step_distance != UINT32_MAX &&
                      oracle.with_distance();
  std::vector<query::PathMatch> out;
  std::vector<NodeId> bound;
  std::function<void(size_t, double)> walk = [&](size_t i, double tag_score) {
    if (i == steps.size()) {
      query::PathMatch m;
      m.bindings = bound;
      m.score = tag_score;
      for (size_t k = 1; k < bound.size(); ++k) {
        uint32_t d = oracle.with_distance()
                         ? oracle.Distance(bound[k - 1], bound[k]).value_or(0)
                         : 0;
        m.total_distance += d;
        m.score *= 1.0 / (1.0 + d);
      }
      out.push_back(std::move(m));
      return;
    }
    for (const auto& [e, sim] : steps[i]) {
      if (out.size() >= options.max_matches) return;
      if (i > 0) {
        NodeId prev = bound.back();
        if (prev == e || !oracle.IsReachable(prev, e)) continue;
        if (filter) {
          auto d = oracle.Distance(prev, e);
          if (!d || *d > options.max_step_distance) continue;
        }
      }
      bound.push_back(e);
      walk(i + 1, tag_score * sim);
      bound.pop_back();
    }
  };
  if (options.max_matches > 0) walk(0, 1.0);
  std::stable_sort(out.begin(), out.end(),
                   [](const query::PathMatch& a, const query::PathMatch& b) {
                     return a.score > b.score;
                   });
  return out;
}

/// count_only pair by pair: the final-step candidates some chain of
/// strictly reachable, pairwise different neighbours ends in.
size_t NaiveCount(const std::string& text, const ReachabilityBackend& oracle,
                  const Collection& c, const query::TagIndex& tags) {
  auto expr = query::PathExpression::Parse(text);
  EXPECT_TRUE(expr.ok()) << text;
  std::vector<Candidates> steps = NaiveCandidates(*expr, c, tags, {});
  Candidates frontier = steps[0];
  for (size_t i = 1; i < steps.size(); ++i) {
    Candidates next;
    for (const auto& t : steps[i]) {
      for (const auto& s : frontier) {
        if (s.first != t.first && oracle.IsReachable(s.first, t.first)) {
          next.push_back(t);
          break;
        }
      }
    }
    frontier = std::move(next);
  }
  return frontier.size();
}

void ExpectSameSequence(const std::vector<query::PathMatch>& got,
                        const std::vector<query::PathMatch>& want,
                        const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].bindings, want[i].bindings) << where << " match " << i;
    EXPECT_EQ(got[i].total_distance, want[i].total_distance)
        << where << " match " << i;
    EXPECT_EQ(got[i].score, want[i].score) << where << " match " << i;
  }
}

struct PathCase {
  const char* expression;
  size_t max_matches = 1000;
  uint32_t max_step_distance = UINT32_MAX;
};

/// Same-tag, wildcard, empty-middle, cyclic (`loop`/`spoke`, see
/// CyclicPathFixture), approximate, distance-bounded and truncated
/// queries, and the shapes that exercise the enumeration's dead marks.
/// Tags missing from a collection just give empty answers.
const PathCase kPathCases[] = {
    {"//cite//cite"},
    {"//*//title"},
    {"//title//*"},
    {"//cite//*//title"},
    {"//*//cite//author"},
    {"//author//nosuchtag//title"},
    {"//title//author//cite"},
    {"//loop//loop"},
    {"//loop//*//loop"},
    {"//hub//loop"},
    {"//spoke//*//spoke"},
    {"//~section//~author"},
    {"//~cite//title"},
    {"//*//author", 1000, 1},
    {"//cite//*//title", 1000, 2},
    {"//~cite//*", 1000, 1},
    {"//*//title", 7},
    {"//cite//cite", 1},
    {"//~cite//*", 13},
    // Dead ends in the middle step, cut off early and run to the end.
    {"//*//cite//title", 5},
    {"//*//cite//title"},
    // A cut-off inside a subtree, after dead ends before it.
    {"//cite//*//author", 3},
    // Dead marks under a distance bound.
    {"//*//*//title", 1000, 1},
    {"//*//title", 0},
};

query::TagSimilarity PathCaseSynonyms() {
  query::TagSimilarity sim;
  sim.AddSynonym("section", "inproceedings", 0.7);
  sim.AddSynonym("section", "article", 0.8);
  sim.AddSynonym("author", "title", 0.6);
  sim.AddSynonym("cite", "footnote", 0.5);
  sim.AddSynonym("cite", "note", 0.4);
  return sim;
}

/// Runs every PathCase through `query` (materializing and count_only)
/// and compares it with the pair-by-pair evaluator over `oracle`.
void ExpectPathCasesMatchOracle(
    const std::string& name, const ReachabilityBackend& oracle,
    const Collection& c, const query::TagIndex& tags,
    const query::TagSimilarity& sim,
    const std::function<Result<PathQueryResponse>(PathQueryRequest)>& query) {
  for (const PathCase& pc : kPathCases) {
    query::PathQueryOptions options;
    options.max_matches = pc.max_matches;
    options.max_step_distance = pc.max_step_distance;
    options.similarity = &sim;
    const std::string where = name + " " + pc.expression;
    auto got = query({.expression = pc.expression,
                      .max_matches = pc.max_matches,
                      .max_step_distance = pc.max_step_distance});
    ASSERT_TRUE(got.ok()) << where << ": " << got.status();
    ExpectSameSequence(got->matches,
                       NaiveMatches(pc.expression, oracle, c, tags, options),
                       where);
    auto count = query({.expression = pc.expression, .count_only = true});
    ASSERT_TRUE(count.ok()) << where << ": " << count.status();
    EXPECT_EQ(count->count, NaiveCount(pc.expression, oracle, c, tags))
        << where;
  }
}

/// Every serving shape against the pair-by-pair evaluator over the
/// closure: the four labelled and label-less single engines, an
/// EnginePool (labels), and the same pool once a delta is buffered
/// (the label-less overlay).
void CheckPathReducer(const Collection& c, const HopiIndex& index,
                      const TransitiveClosureIndex& closure,
                      const storage::MappedLinLoutStore& mapped_v3,
                      const storage::MappedLinLoutStore& mapped_v4) {
  const query::TagSimilarity sim = PathCaseSynonyms();
  QueryEngineOptions options;
  options.similarity = sim;
  std::vector<QueryEngine> engines;
  engines.push_back(QueryEngine::ForIndex(index, options));
  engines.push_back(QueryEngine::ForMappedStore(c, mapped_v3, options));
  engines.push_back(QueryEngine::ForMappedStore(c, mapped_v4, options));
  engines.push_back(QueryEngine::ForClosure(c, closure, true, options));
  ClosureBackend oracle(closure, /*with_distance=*/true);
  for (const QueryEngine& engine : engines) {
    ExpectPathCasesMatchOracle(
        std::string(engine.backend().Name()), oracle, c, engine.tags(), sim,
        [&engine](PathQueryRequest r) { return engine.Query(r); });
  }

  EnginePoolOptions pool_options;
  pool_options.num_threads = 2;
  pool_options.similarity = sim;
  EnginePool pool(BackendSnapshot::OfIndex(Unowned(index)), pool_options);
  auto pool_query = [&pool](PathQueryRequest r) -> Result<PathQueryResponse> {
    HOPI_ASSIGN_OR_RETURN(PoolPathResponse response, pool.Query(std::move(r)));
    return response.result;
  };
  query::TagIndex tags(c);
  ExpectPathCasesMatchOracle("pool", oracle, c, tags, sim, pool_query);

  // One buffered link puts the pool on the overlay: plain answers over
  // base ∪ delta until a rebuild.
  const std::vector<NodeId>& titles = tags.Lookup("title");
  ASSERT_FALSE(titles.empty());
  NodeId from = titles.front();
  NodeId to = kInvalidNode;
  for (NodeId e = 0; e < c.NumElements() && to == kInvalidNode; ++e) {
    if (e != from && !closure.IsReachable(from, e)) to = e;
  }
  ASSERT_NE(to, kInvalidNode);
  ASSERT_TRUE(pool.EnableMutations(index).ok());
  ASSERT_TRUE(pool.ApplyMutation(Mutation::InsertLink(from, to)).ok());
  Collection grown = c;
  ASSERT_TRUE(grown.AddLink(from, to));
  TransitiveClosureIndex grown_closure =
      TransitiveClosureIndex::Build(grown.ElementGraph(), false);
  ClosureBackend plain_oracle(grown_closure, /*with_distance=*/false);
  ExpectPathCasesMatchOracle("pool+overlay", plain_oracle, c, tags, sim,
                             pool_query);
}

TEST_F(QueryEngineFixture, PathReducerMatchesPairByPairEvaluation) {
  CheckPathReducer(c_, *index_, *closure_, *mapped_store_, *mapped_v4_store_);
}

/// A random collection with link cycles, plus two documents whose
/// `loop` and `spoke` elements link to each other (u -> v -> u): `loop`
/// is the only element of its tag and reaches itself, which a pair
/// must never bind.
class CyclicPathFixture : public QueryEngineFixture {
 protected:
  Collection MakeCollection() const override {
    Collection c = hopi::testing::RandomCollection(24, 6, 30, 29);
    collection::DocId a = c.AddDocument("cycle_a.xml");
    NodeId loop = c.AddElement(a, "loop", c.AddElement(a, "hub"));
    collection::DocId b = c.AddDocument("cycle_b.xml");
    NodeId spoke = c.AddElement(b, "spoke", c.AddElement(b, "hub"));
    EXPECT_TRUE(c.AddLink(loop, spoke));
    EXPECT_TRUE(c.AddLink(spoke, loop));
    return c;
  }
};

TEST_F(CyclicPathFixture, PathReducerMatchesPairByPairEvaluation) {
  CheckPathReducer(c_, *index_, *closure_, *mapped_store_, *mapped_v4_store_);
  // The cycle itself, spelled out.
  for (const auto& engine : engines_) {
    auto self = engine->Query({.expression = "//loop//loop"});
    ASSERT_TRUE(self.ok());
    EXPECT_TRUE(self->matches.empty()) << engine->backend().Name();
    auto round_trip = engine->Query({.expression = "//loop//*//loop"});
    ASSERT_TRUE(round_trip.ok());
    EXPECT_FALSE(round_trip->matches.empty()) << engine->backend().Name();
    auto count =
        engine->Query({.expression = "//loop//loop", .count_only = true});
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count->count, 0u) << engine->backend().Name();
  }
}

/// Pair probes a backend was asked for.
struct ProbeCounts {
  size_t is_reachable = 0;
  size_t distance = 0;
};

/// Forwards every call to `inner`, labels included, and counts the
/// pair probes.
class ProbeCountingBackend final : public ReachabilityBackend {
 public:
  ProbeCountingBackend(const ReachabilityBackend& inner, ProbeCounts* counts)
      : inner_(inner), counts_(counts) {}

  std::string_view Name() const override { return inner_.Name(); }
  bool with_distance() const override { return inner_.with_distance(); }
  bool IsReachable(NodeId u, NodeId v) const override {
    ++counts_->is_reachable;
    return inner_.IsReachable(u, v);
  }
  std::optional<uint32_t> Distance(NodeId u, NodeId v) const override {
    ++counts_->distance;
    return inner_.Distance(u, v);
  }
  std::vector<NodeId> Descendants(NodeId u) const override {
    return inner_.Descendants(u);
  }
  std::vector<NodeId> Ancestors(NodeId u) const override {
    return inner_.Ancestors(u);
  }
  bool HasLabels() const override { return inner_.HasLabels(); }
  std::optional<twohop::JoinView> BorrowOutJoin(NodeId u) const override {
    return inner_.BorrowOutJoin(u);
  }
  std::optional<twohop::JoinView> BorrowInJoin(NodeId v) const override {
    return inner_.BorrowInJoin(v);
  }
  std::optional<uint64_t> OutLabelBlock(NodeId u) const override {
    return inner_.OutLabelBlock(u);
  }
  std::optional<uint64_t> InLabelBlock(NodeId v) const override {
    return inner_.InLabelBlock(v);
  }
  Result<LabelBlock> DecodeLabelBlock(uint64_t handle) const override {
    return inner_.DecodeLabelBlock(handle);
  }

 private:
  const ReachabilityBackend& inner_;
  ProbeCounts* counts_;
};

/// Materializing path queries on labelled backends (in-memory cover,
/// mapped v3 and v4) bind every step from labels: the backend is never
/// asked a pair probe, not even for the distances the scores use.
void ExpectNoPairProbes(const Collection& c,
                        const std::vector<const ReachabilityBackend*>& labelled) {
  for (const ReachabilityBackend* inner : labelled) {
    ASSERT_TRUE(inner->HasLabels()) << inner->Name();
    ProbeCounts counts;
    QueryEngine engine(c,
                       std::make_unique<ProbeCountingBackend>(*inner, &counts));
    size_t matches = 0;
    for (const PathCase& pc : kPathCases) {
      auto got = engine.Query({.expression = pc.expression,
                               .max_matches = pc.max_matches,
                               .max_step_distance = pc.max_step_distance});
      ASSERT_TRUE(got.ok()) << pc.expression << ": " << got.status();
      matches += got->matches.size();
    }
    EXPECT_GT(matches, 0u) << inner->Name();
    EXPECT_EQ(counts.is_reachable, 0u) << inner->Name();
    EXPECT_EQ(counts.distance, 0u) << inner->Name();
  }
}

TEST_F(QueryEngineFixture, LabelledPathQueriesMakeNoPairProbes) {
  ExpectNoPairProbes(c_, {backends_[0].get(), backends_[2].get(),
                          backends_[3].get()});
}

TEST_F(CyclicPathFixture, LabelledPathQueriesMakeNoPairProbes) {
  ExpectNoPairProbes(c_, {backends_[0].get(), backends_[2].get(),
                          backends_[3].get()});
}

TEST_F(QueryEngineFixture, CorruptLoutOfExpandedSurvivorFailsTyped) {
  // Damage the v4 block that holds the LOUT row of a step-1 binding of
  // a 3-step query, in a lazily opened store: expanding that binding
  // reads the row, and the materializing query must fail with
  // Corruption instead of coming back short.
  const std::string expression = "//inproceedings//cite//title";
  auto clean = engines_[3]->Query({.expression = expression});
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_FALSE(clean->matches.empty());
  const NodeId survivor = clean->matches.front().bindings[1];
  std::optional<uint64_t> handle = mapped_v4_store_->LoutBlockHandle(survivor);
  ASSERT_TRUE(handle.has_value());
  const uint64_t block = *handle & 0xFFFFFFFFu;  // low half: block index

  auto info = storage::InspectFile(v4_path_);
  ASSERT_TRUE(info.ok()) << info.status();
  std::vector<std::byte> image = hopi::testing::ReadFileBytes(v4_path_);
  const storage::SectionRange& table =
      info->sections[storage::kV4LoutBlocks];
  storage::V4BlockEntry entry;
  ASSERT_LE((block + 1) * sizeof(entry), table.length);
  std::memcpy(&entry, image.data() + table.offset + block * sizeof(entry),
              sizeof(entry));
  const storage::SectionRange& blob = info->sections[storage::kV4LoutBlob];
  ASSERT_LE(entry.blob_offset + entry.blob_bytes, blob.length);
  image[blob.offset + entry.blob_offset + entry.blob_bytes / 2] ^=
      std::byte{0x08};

  const std::string path = ::testing::TempDir() + "hopi_engine_corrupt_lout.bin";
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(image.data(), 1, image.size(), f), image.size());
  std::fclose(f);
  auto store = storage::MappedLinLoutStore::Open(
      path, {.verify_file_checksum = false});
  ASSERT_TRUE(store.ok()) << store.status();
  QueryEngine engine = QueryEngine::ForMappedStore(c_, *store);
  auto matches = engine.Query({.expression = expression});
  EXPECT_TRUE(matches.status().IsCorruption()) << matches.status();
  std::remove(path.c_str());
}

/// Lends the borrowed labels of `backend` but fails the second fetch
/// of LOUT(`node`). The forward pass makes the first, so the failure
/// lands in the enumeration's expansion of `node`.
class FailingSecondLoutFetch final : public query::LabelSource {
 public:
  FailingSecondLoutFetch(const ReachabilityBackend& backend, NodeId node)
      : backend_(backend), node_(node) {}

  PinnedJoin Fetch(bool out, NodeId node, Status* error) const override {
    if (out && node == node_ && ++fetches_ == 2) {
      if (error->ok()) *error = Status::Corruption("injected LOUT failure");
      return {twohop::JoinView{}, nullptr};
    }
    std::optional<twohop::JoinView> view =
        out ? backend_.BorrowOutJoin(node) : backend_.BorrowInJoin(node);
    return {view.value_or(twohop::JoinView{}), nullptr};
  }

  size_t fetches() const { return fetches_; }

 private:
  const ReachabilityBackend& backend_;
  NodeId node_;
  mutable size_t fetches_ = 0;
};

TEST_F(QueryEngineFixture, FailedFetchDuringExpansionFailsTheQuery) {
  const ReachabilityBackend& backend = *backends_[0];
  query::TagIndex tags(c_);
  auto expr = query::PathExpression::Parse("//inproceedings//cite//title");
  ASSERT_TRUE(expr.ok());
  auto clean = engines_[0]->Query({.expression = expr->ToString()});
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_FALSE(clean->matches.empty());
  FailingSecondLoutFetch labels(backend, clean->matches.front().bindings[1]);
  query::SemiJoinContext context;
  context.labels = &labels;
  auto got = query::EvaluatePath(*expr, backend, c_, tags, {}, context);
  EXPECT_EQ(labels.fetches(), 2u);
  EXPECT_TRUE(got.status().IsCorruption()) << got.status();
}

// ---- the byte-budgeted block cache ----

/// A one-row block for node `key` whose single entry points at
/// `center` — the smallest block there is.
LabelBlock MakeBlock(NodeId key, NodeId center) {
  auto block = std::make_shared<storage::DecodedBlock>();
  block->entries = {{center, 1}};
  block->row_keys = {key};
  block->row_begin = {0, 1};
  return block;
}

/// Byte charge of one MakeBlock() block (they are all the same shape).
size_t OneBlockBytes() { return MakeBlock(0, 0)->ApproxBytes(); }

uint64_t OutKey(NodeId node) {
  return LabelCache::KeyFor(LabelCache::Side::kOut, node);
}
uint64_t InKey(NodeId node) {
  return LabelCache::KeyFor(LabelCache::Side::kIn, node);
}

TEST(LabelCacheTest, HitsAndMisses) {
  LabelCache cache(1 << 20);
  EXPECT_EQ(cache.Get(OutKey(1)), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  cache.Put(OutKey(1), MakeBlock(1, 42));
  LabelBlock hit = cache.Get(OutKey(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->Row(0)[0].center, 42u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.bytes_resident(), OneBlockBytes());
}

TEST(LabelCacheTest, SidesAndBlockKeysAreDistinct) {
  LabelCache cache(1 << 20);
  cache.Put(OutKey(5), MakeBlock(5, 1));
  EXPECT_EQ(cache.Get(InKey(5)), nullptr);
  cache.Put(InKey(5), MakeBlock(5, 2));
  EXPECT_EQ(cache.Get(OutKey(5))->Row(0)[0].center, 1u);
  EXPECT_EQ(cache.Get(InKey(5))->Row(0)[0].center, 2u);
  // Block keys live in their own namespace: a block handle can never
  // collide with a row-memo key (bit 63 separates them).
  EXPECT_EQ(cache.Get(LabelCache::BlockKeyFor(OutKey(5))), nullptr);
  cache.Put(LabelCache::BlockKeyFor(0), MakeBlock(5, 3));
  EXPECT_EQ(cache.Get(LabelCache::BlockKeyFor(0))->Row(0)[0].center, 3u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(LabelCacheTest, EvictsLeastRecentlyUsedWhenOverBudget) {
  LabelCache cache(3 * OneBlockBytes());
  cache.Put(OutKey(1), MakeBlock(1, 1));
  cache.Put(OutKey(2), MakeBlock(2, 2));
  cache.Put(OutKey(3), MakeBlock(3, 3));
  EXPECT_EQ(cache.bytes_resident(), 3 * OneBlockBytes());
  // Touch 1 so 2 becomes the LRU entry.
  ASSERT_NE(cache.Get(OutKey(1)), nullptr);
  cache.Put(OutKey(4), MakeBlock(4, 4));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Get(OutKey(2)), nullptr);  // evicted
  EXPECT_NE(cache.Get(OutKey(1)), nullptr);
  EXPECT_NE(cache.Get(OutKey(3)), nullptr);
  EXPECT_NE(cache.Get(OutKey(4)), nullptr);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_LE(cache.bytes_resident(), cache.byte_budget());
}

TEST(LabelCacheTest, PutOverwritesInPlace) {
  LabelCache cache(1 << 20);
  cache.Put(OutKey(1), MakeBlock(1, 1));
  cache.Put(OutKey(1), MakeBlock(1, 9));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes_resident(), OneBlockBytes());
  EXPECT_EQ(cache.Get(OutKey(1))->Row(0)[0].center, 9u);
}

TEST(LabelCacheTest, ZeroBudgetCachesNothingButPinsStillWork) {
  // Budget 0 is legal: every insert is immediately evicted, yet the
  // caller's shared_ptr pin keeps the returned block usable — the
  // engine stays correct, just cold.
  LabelCache cache(0);
  LabelBlock pinned = cache.Put(OutKey(1), MakeBlock(1, 7));
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->Row(0)[0].center, 7u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes_resident(), 0u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Get(OutKey(1)), nullptr);
}

TEST(LabelCacheTest, EvictionDoesNotInvalidatePinnedBlocks) {
  LabelCache cache(OneBlockBytes());  // room for exactly one block
  LabelBlock pinned = cache.Put(OutKey(1), MakeBlock(1, 11));
  cache.Put(OutKey(2), MakeBlock(2, 22));  // evicts block 1
  EXPECT_EQ(cache.Get(OutKey(1)), nullptr);
  // The evicted block is alive for as long as the pin is held: this is
  // the ownership rule PinnedJoin relies on mid-join.
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->Row(0)[0].center, 11u);
  EXPECT_EQ(pinned.use_count(), 1);  // cache reference is gone
}

TEST(LabelCacheTest, RowMemoServesPinnedRowsWithoutBlockLookups) {
  LabelCache cache(1 << 20);
  LabelBlock block = cache.Put(LabelCache::BlockKeyFor(7), MakeBlock(3, 99));
  cache.MemoRow(OutKey(3), block, 0);
  uint32_t row = 123;
  LabelBlock hit = cache.GetRow(OutKey(3), &row);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(row, 0u);
  EXPECT_EQ(hit->Row(row)[0].center, 99u);
  EXPECT_EQ(hit.get(), block.get());  // same block, now pinned twice
  EXPECT_EQ(cache.hits(), 1u);        // a memo hit is a cache hit
  // A key never memoized misses without touching the miss counter —
  // the block route that follows does the accounting.
  EXPECT_EQ(cache.GetRow(OutKey(4), &row), nullptr);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(LabelCacheTest, RowMemoHoldsNoStrongReference) {
  LabelCache cache(OneBlockBytes());  // room for exactly one block
  LabelBlock block = cache.Put(LabelCache::BlockKeyFor(1), MakeBlock(1, 11));
  cache.MemoRow(OutKey(1), block, 0);
  cache.Put(LabelCache::BlockKeyFor(2), MakeBlock(2, 22));  // evicts block 1
  // The memo's weak reference neither kept the evicted block resident
  // nor dangles: once the last pin drops, the memo entry just misses.
  EXPECT_EQ(block.use_count(), 1);
  uint32_t row = 0;
  ASSERT_NE(cache.GetRow(OutKey(1), &row), nullptr);  // pin still alive
  block = nullptr;
  EXPECT_EQ(cache.GetRow(OutKey(1), &row), nullptr);  // expired, dropped
}

TEST(LabelCacheTest, DecodeAccountingFlowsIntoStats) {
  LabelCache cache(1 << 20);
  cache.RecordDecode(1500);
  cache.RecordDecode(500);
  LabelCache::Stats stats = cache.StatsSnapshot();
  EXPECT_EQ(stats.blocks_decoded, 2u);
  EXPECT_EQ(stats.decode_nanos, 2000u);
  EXPECT_EQ(stats.byte_budget, size_t{1} << 20);
}

TEST(LabelCacheTest, ClearResetsEntriesButKeepsCounters) {
  LabelCache cache(1 << 20);
  cache.Put(OutKey(1), MakeBlock(1, 1));
  ASSERT_NE(cache.Get(OutKey(1)), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes_resident(), 0u);
  EXPECT_EQ(cache.Get(OutKey(1)), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(QueryEngineFixture, SmallCacheEvictsUnderPressure) {
  // Room for about two decoded blocks of the v4 store.
  NodeId u = 0;
  while (!mapped_v4_store_->LoutBlockHandle(u)) ++u;
  auto block =
      mapped_v4_store_->DecodeBlock(*mapped_v4_store_->LoutBlockHandle(u));
  ASSERT_TRUE(block.ok()) << block.status();
  QueryEngineOptions options;
  options.label_cache_bytes = 2 * (*block)->ApproxBytes();
  QueryEngine engine =
      QueryEngine::ForMappedStore(c_, *mapped_v4_store_, std::move(options));
  // Probe far more distinct nodes than the budget holds; answers must
  // stay correct while the cache churns.
  std::vector<NodePair> pairs = RandomPairs(200, 31);
  BatchResponse r = engine.Batch({.pairs = pairs});
  EXPECT_GT(engine.label_cache().evictions(), 0u);
  EXPECT_LE(engine.label_cache().bytes_resident(),
            engine.label_cache().byte_budget());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(r.reachable[i],
              engine.backend().IsReachable(pairs[i].first, pairs[i].second));
  }
}

TEST_F(QueryEngineFixture, TinyCacheStillAnswersCompressedStoreCorrectly) {
  // Same pressure test against the v4 block route: a budget smaller
  // than one decoded block means every probe decodes cold — the
  // pathological-but-legal configuration the pinning rule exists for.
  QueryEngineOptions options;
  options.label_cache_bytes = 1;
  QueryEngine engine =
      QueryEngine::ForMappedStore(c_, *mapped_v4_store_, std::move(options));
  std::vector<NodePair> pairs = RandomPairs(100, 41);
  BatchResponse r = engine.Batch({.pairs = pairs});
  ASSERT_TRUE(r.error.ok()) << r.error;
  EXPECT_EQ(engine.label_cache().size(), 0u);
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(r.reachable[i],
              engine.backend().IsReachable(pairs[i].first, pairs[i].second));
  }
}

}  // namespace
}  // namespace hopi::engine
