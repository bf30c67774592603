#include "hopi/build.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "graph/subgraph.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hopi {

namespace {

void AggregateStats(const twohop::CoverBuildStats& part,
                    twohop::CoverBuildStats* total) {
  total->initial_connections += part.initial_connections;
  total->centers_chosen += part.centers_chosen;
  total->densest_recomputations += part.densest_recomputations;
  total->queue_reinsertions += part.queue_reinsertions;
  total->preselect_covered += part.preselect_covered;
  total->speculative_evaluations += part.speculative_evaluations;
  total->speculative_wasted += part.speculative_wasted;
  total->closure_seconds += part.closure_seconds;
  total->seed_seconds += part.seed_seconds;
  total->greedy_seconds += part.greedy_seconds;
}

}  // namespace

Result<HopiIndex> BuildIndex(collection::Collection* collection,
                             const IndexBuildOptions& options,
                             IndexBuildStats* stats) {
  IndexBuildStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  Stopwatch total_watch;

  const size_t threads = std::max<size_t>(options.num_threads, 1);
  stats->num_threads = threads;
  twohop::CoverBuildOptions cover_options;
  cover_options.with_distance = options.with_distance;

  if (options.global) {
    Stopwatch watch;
    twohop::CoverBuildStats cb;
    // One global cover is the extreme single-fat-partition case: the
    // whole thread budget goes inside the cover build.
    cover_options.num_threads = threads;
    auto cover = twohop::BuildCover(collection->ElementGraph(), cover_options,
                                    &cb);
    if (!cover.ok()) return cover.status();
    stats->covers_seconds = watch.ElapsedSeconds();
    stats->num_partitions = 1;
    stats->partitions_in_turn = 1;
    AggregateStats(cb, &stats->cover_build);
    stats->total_partition_connections = cb.initial_connections;
    stats->largest_partition_connections = cb.initial_connections;
    stats->cover_entries = cover->Size();
    stats->total_seconds = total_watch.ElapsedSeconds();
    return HopiIndex(collection, std::move(cover).value(),
                     options.with_distance);
  }

  // --- Step 1: partition the document-level graph ---
  Stopwatch watch;
  auto partitioning =
      partition::PartitionCollection(*collection, options.partition);
  if (!partitioning.ok()) return partitioning.status();
  stats->partition_seconds = watch.ElapsedSeconds();
  stats->num_partitions = partitioning->NumPartitions();
  stats->cross_links = partitioning->cross_links.size();

  // Sec 4.2: cross-partition link targets, grouped by partition, used as
  // preselected centers for the partition-cover builds.
  std::vector<std::vector<NodeId>> preselect_by_part(
      partitioning->NumPartitions());
  if (options.preselect_link_targets) {
    for (const collection::Link& l : partitioning->cross_links) {
      uint32_t part = partitioning->part_of[collection->DocOf(l.target)];
      preselect_by_part[part].push_back(l.target);
    }
    for (auto& targets : preselect_by_part) {
      std::sort(targets.begin(), targets.end());
      targets.erase(std::unique(targets.begin(), targets.end()),
                    targets.end());
    }
  }

  // --- Step 2: per-partition covers (local ids, translated to global) ---
  // Partition covers are independent (Sec 4.1: "all these computations
  // can be done concurrently"), but one partition can hold most of the
  // connections and cap the phase on one thread. So a partition holding
  // at least 1/threads of the elements is built in turn on the calling
  // thread, largest first, with the whole budget inside: its closure and
  // seeding run in parallel, its greedy loop stays sequential
  // (speculation_batch = 1; speculative scratch per worker costs more
  // memory than it saves time). Keeping these builds off pool workers
  // also keeps their large scratch out of per-thread malloc arenas. The
  // other partitions run across an outer pool, one thread each. Covers
  // are translated into the unified cover serially.
  watch.Restart();
  const size_t num_partitions = partitioning->NumPartitions();
  std::vector<Result<twohop::TwoHopCover>> covers(
      num_partitions, Status::Internal("partition cover not built"));
  std::vector<InducedSubgraph> subgraphs(num_partitions);
  std::vector<twohop::CoverBuildStats> part_stats(num_partitions);

  std::vector<size_t> part_sizes(num_partitions, 0);
  for (size_t p = 0; p < num_partitions; ++p) {
    for (collection::DocId d : partitioning->partitions[p]) {
      part_sizes[p] += collection->ElementsOf(d).size();
    }
  }
  const size_t total_elements =
      std::accumulate(part_sizes.begin(), part_sizes.end(), size_t{0});
  std::vector<size_t> in_turn;
  std::vector<size_t> pooled;
  for (size_t p = 0; p < num_partitions; ++p) {
    const bool fat = total_elements > 0 &&
                     part_sizes[p] * threads >= total_elements;
    (fat ? in_turn : pooled).push_back(p);
  }
  std::stable_sort(in_turn.begin(), in_turn.end(), [&](size_t a, size_t b) {
    return part_sizes[a] > part_sizes[b];
  });
  stats->partitions_in_turn = in_turn.size();

  auto build_one = [&](size_t p, bool whole_budget) -> Status {
    std::vector<NodeId> elements;
    for (collection::DocId d : partitioning->partitions[p]) {
      const auto& els = collection->ElementsOf(d);
      elements.insert(elements.end(), els.begin(), els.end());
    }
    subgraphs[p] =
        BuildInducedSubgraph(collection->ElementGraph(), elements);
    twohop::CoverBuildOptions part_options = cover_options;
    if (whole_budget) {
      part_options.num_threads = threads;
      part_options.speculation_batch = 1;
    }
    for (NodeId global_target : preselect_by_part[p]) {
      NodeId local = subgraphs[p].Local(global_target);
      assert(local != kInvalidNode);
      part_options.preselect_centers.push_back(local);
    }
    covers[p] =
        twohop::BuildCover(subgraphs[p].graph, part_options, &part_stats[p]);
    // Propagate a failed cover build through the pool's error channel so
    // the first failure cancels the remaining partitions immediately
    // (it used to surface only during the serial unification pass).
    return covers[p].status();
  };

  for (size_t p : in_turn) HOPI_RETURN_NOT_OK(build_one(p, true));
  ThreadPool partition_pool(
      std::min(threads, std::max<size_t>(pooled.size(), 1)));
  HOPI_RETURN_NOT_OK(
      partition_pool.ParallelFor(0, pooled.size(), [&](size_t i) {
        return build_one(pooled[i], false);
      }));

  twohop::TwoHopCover unified(collection->NumElements());
  for (size_t p = 0; p < num_partitions; ++p) {
    if (!covers[p].ok()) return covers[p].status();
    AggregateStats(part_stats[p], &stats->cover_build);
    stats->total_partition_connections +=
        part_stats[p].initial_connections;
    stats->largest_partition_connections =
        std::max(stats->largest_partition_connections,
                 part_stats[p].initial_connections);
    const twohop::TwoHopCover& cover = *covers[p];
    const InducedSubgraph& sub = subgraphs[p];
    for (NodeId local = 0; local < cover.NumNodes(); ++local) {
      NodeId global = sub.Global(local);
      for (const twohop::LabelEntry& e : cover.In(local)) {
        unified.AddIn(global, sub.Global(e.center), e.dist);
      }
      for (const twohop::LabelEntry& e : cover.Out(local)) {
        unified.AddOut(global, sub.Global(e.center), e.dist);
      }
    }
  }
  stats->covers_seconds = watch.ElapsedSeconds();

  // --- Step 3: join the partition covers ---
  watch.Restart();
  twohop::IndexedCover indexed(std::move(unified));
  JoinOptions join_options;
  join_options.psg_partition_cap = options.psg_partition_cap;
  Status join_status =
      options.join == JoinAlgorithm::kRecursive
          ? JoinCoversRecursive(*collection, *partitioning,
                                options.with_distance, &indexed,
                                &stats->join_stats, join_options)
          : JoinCoversIncremental(*collection, *partitioning,
                                  options.with_distance, &indexed,
                                  &stats->join_stats);
  HOPI_RETURN_NOT_OK(join_status);
  stats->join_seconds = watch.ElapsedSeconds();

  stats->cover_entries = indexed.cover().Size();
  stats->total_seconds = total_watch.ElapsedSeconds();

  // Hand the finished cover to the index. HopiIndex re-wraps it in an
  // IndexedCover; moving the TwoHopCover out is cheap, rebuilding the
  // reverse maps is O(|L|).
  twohop::TwoHopCover final_cover = std::move(*indexed.mutable_cover());
  return HopiIndex(collection, std::move(final_cover),
                   options.with_distance);
}

}  // namespace hopi
