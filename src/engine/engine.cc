#include "engine/engine.h"

#include <chrono>
#include <memory>
#include <utility>

#include "engine/backends.h"
#include "twohop/join_kernel.h"

namespace hopi::engine {

namespace {

uint64_t PairKey(const NodePair& p) {
  return (static_cast<uint64_t>(p.first) << 32) | p.second;
}

}  // namespace

QueryEngine::QueryEngine(const collection::Collection& collection,
                         std::unique_ptr<ReachabilityBackend> backend,
                         QueryEngineOptions options)
    : collection_(&collection),
      backend_(std::move(backend)),
      tags_(options.shared_tags
                ? std::move(options.shared_tags)
                : std::make_shared<query::TagIndex>(collection)),
      similarity_(std::move(options.similarity)),
      cache_(options.label_cache_bytes) {}

QueryEngine QueryEngine::ForIndex(const HopiIndex& index,
                                  QueryEngineOptions options) {
  return QueryEngine(*index.collection(),
                     std::make_unique<HopiIndexBackend>(index),
                     std::move(options));
}

QueryEngine QueryEngine::ForMappedStore(
    const collection::Collection& collection,
    const storage::MappedLinLoutStore& store, QueryEngineOptions options) {
  return QueryEngine(collection,
                     std::make_unique<MappedLinLoutBackend>(store),
                     std::move(options));
}

QueryEngine QueryEngine::ForClosure(const collection::Collection& collection,
                                    const TransitiveClosureIndex& closure,
                                    bool with_distance,
                                    QueryEngineOptions options) {
  return QueryEngine(collection,
                     std::make_unique<ClosureBackend>(closure, with_distance),
                     std::move(options));
}

ReachabilityResponse QueryEngine::Reachability(
    const ReachabilityRequest& request) const {
  ReachabilityResponse response;
  response.reachable = backend_->IsReachable(request.source, request.target);
  if (request.want_distance && response.reachable) {
    response.distance = backend_->Distance(request.source, request.target);
  }
  return response;
}

PinnedJoin QueryEngine::FetchJoinLabel(LabelCache::Side side, NodeId node,
                                       BatchStats* stats,
                                       Status* error) const {
  bool out = side == LabelCache::Side::kOut;
  // Row-memo fast path: once a node's row has been located inside a
  // decoded block, warm probes skip every directory search — one hash
  // find, one weak-pin upgrade, O(1) row. This is what keeps the v4
  // warm path competitive with the raw v3 borrow route.
  uint64_t row_key = LabelCache::KeyFor(side, node);
  uint32_t memo_row = 0;
  if (LabelBlock block = cache_.GetRow(row_key, &memo_row)) {
    ++stats->cache_hits;
    twohop::JoinView view = block->JoinRow(memo_row);
    return {view, std::move(block)};
  }
  // Block route: compressed storage names the block holding the row;
  // the cache serves the decoded block, pinned for the caller. Checked
  // before the borrow route because for compressed backends both
  // answers come from the same directory search — asking "can I
  // borrow?" first would pay that search twice per fetch.
  if (std::optional<uint64_t> handle =
          out ? backend_->OutLabelBlock(node) : backend_->InLabelBlock(node)) {
    uint64_t key = LabelCache::BlockKeyFor(*handle);
    LabelBlock block = cache_.Get(key);
    if (block) {
      ++stats->cache_hits;
    } else {
      ++stats->cache_misses;
      auto start = std::chrono::steady_clock::now();
      Result<LabelBlock> decoded = backend_->DecodeLabelBlock(*handle);
      if (!decoded.ok()) {
        if (error->ok()) *error = decoded.status();
        return {twohop::JoinView{}, nullptr};
      }
      cache_.RecordDecode(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count()));
      ++stats->blocks_decoded;
      block = cache_.Put(key, std::move(*decoded));
    }
    int64_t row = block->RowIndexFor(node);
    if (row < 0) return {twohop::JoinView{}, std::move(block)};
    cache_.MemoRow(row_key, block, static_cast<uint32_t>(row));
    twohop::JoinView view = block->JoinRow(static_cast<size_t>(row));
    return {view, std::move(block)};
  }
  // Borrow route: label storage the backend already owns (in-memory
  // covers, raw mmapped file images) is lent as a kernel view — zero
  // copies, no pin needed (backend-lifetime storage). For compressed
  // backends this only serves rows with no block: the empty ones.
  if (std::optional<twohop::JoinView> borrowed =
          out ? backend_->BorrowOutJoin(node) : backend_->BorrowInJoin(node)) {
    ++stats->labels_borrowed;
    return {*borrowed, nullptr};
  }
  if (error->ok()) {
    *error = Status::Internal("backend " + std::string(backend_->Name()) +
                              " lent no label for node " +
                              std::to_string(node));
  }
  return {twohop::JoinView{}, nullptr};
}

void QueryEngine::DedupeProbes(const std::vector<NodePair>& pairs) const {
  DedupScratch& d = dedup_scratch_;
  int bits = 1;
  while ((size_t{1} << bits) < 2 * pairs.size()) ++bits;
  d.table.assign(size_t{1} << bits, DedupScratch::Bucket{});
  d.unique.clear();
  d.slot.resize(pairs.size());
  const size_t mask = d.table.size() - 1;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const uint64_t key = PairKey(pairs[i]);
    // Fibonacci hashing: the multiply folds both ids into the top bits.
    size_t b = (key * 0x9E3779B97F4A7C15ull) >> (64 - bits);
    while (d.table[b].unique != DedupScratch::kEmpty &&
           d.table[b].key != key) {
      b = (b + 1) & mask;
    }
    if (d.table[b].unique == DedupScratch::kEmpty) {
      d.table[b] = {key, d.unique.size()};
      d.unique.push_back(pairs[i]);
    }
    d.slot[i] = d.table[b].unique;
  }
}

BatchResponse QueryEngine::Batch(const BatchRequest& request) const {
  BatchResponse response;
  response.stats.probes = request.pairs.size();

  // Dedup repeated (u, v) probes: answer each distinct pair once, then
  // scatter the answers back to every occurrence.
  DedupeProbes(request.pairs);
  const std::vector<NodePair>& unique = dedup_scratch_.unique;
  const std::vector<size_t>& slot = dedup_scratch_.slot;
  response.stats.unique_probes = unique.size();

  std::vector<bool> reachable(unique.size());
  std::vector<std::optional<uint32_t>> distance(
      request.want_distances ? unique.size() : 0);

  if (backend_->HasLabels()) {
    for (size_t k = 0; k < unique.size(); ++k) {
      auto [u, v] = unique[k];
      if (u == v) {
        reachable[k] = true;
        if (request.want_distances) distance[k] = 0;
        continue;
      }
      PinnedJoin lout = FetchJoinLabel(LabelCache::Side::kOut, u,
                                       &response.stats, &response.error);
      PinnedJoin lin = FetchJoinLabel(LabelCache::Side::kIn, v,
                                      &response.stats, &response.error);
      twohop::LabelJoinResult join = twohop::JoinViews(
          u, v, lout.view, lin.view, request.want_distances);
      reachable[k] = join.connected;
      if (request.want_distances) distance[k] = join.distance;
    }
  } else {
    response.stats.backend_probes = unique.size();
    reachable = backend_->TestConnections(unique);
    if (request.want_distances) {
      for (size_t k = 0; k < unique.size(); ++k) {
        if (reachable[k]) {
          distance[k] = backend_->Distance(unique[k].first, unique[k].second);
        }
      }
    }
  }

  response.reachable.resize(request.pairs.size());
  if (request.want_distances) {
    response.distances.resize(request.pairs.size());
  }
  for (size_t i = 0; i < request.pairs.size(); ++i) {
    response.reachable[i] = reachable[slot[i]];
    if (request.want_distances) response.distances[i] = distance[slot[i]];
  }
  return response;
}

class QueryEngine::PathLabels final : public query::LabelSource {
 public:
  explicit PathLabels(const QueryEngine& engine) : engine_(&engine) {}

  PinnedJoin Fetch(bool out, NodeId node, Status* error) const override {
    return engine_->FetchJoinLabel(
        out ? LabelCache::Side::kOut : LabelCache::Side::kIn, node, &stats_,
        error);
  }

 private:
  const QueryEngine* engine_;
  mutable BatchStats stats_;  // route counts; path responses carry none
};

Result<PathQueryResponse> QueryEngine::Query(
    const PathQueryRequest& request) const {
  HOPI_ASSIGN_OR_RETURN(query::PathExpression expr,
                        query::PathExpression::Parse(request.expression));
  PathLabels labels(*this);
  query::SemiJoinContext context;
  context.labels = backend_->HasLabels() ? &labels : nullptr;
  context.scratch = &semi_join_scratch_;
  PathQueryResponse response;
  if (request.count_only) {
    HOPI_ASSIGN_OR_RETURN(response.count,
                          query::CountPathResults(expr, *backend_, *collection_,
                                                  *tags_, context));
    return response;
  }
  query::PathQueryOptions options;
  options.max_matches = request.max_matches;
  options.max_step_distance = request.max_step_distance;
  options.min_tag_similarity = request.min_tag_similarity;
  if (similarity_) options.similarity = &*similarity_;
  HOPI_ASSIGN_OR_RETURN(
      response.matches,
      query::EvaluatePath(expr, *backend_, *collection_, *tags_, options,
                          context));
  response.count = response.matches.size();
  return response;
}

}  // namespace hopi::engine
