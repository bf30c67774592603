// hopi_serve: stand up the whole serving stack on one synthetic
// collection — datagen -> index build -> frozen snapshot -> EnginePool
// -> ReachabilityService -> epoll HttpServer — behind command-line
// flags, so the server can be curl'ed, load-tested (bench_serving
// --connect), and soak-tested by hand.
//
//   hopi_serve --port=8080 --docs=800 --threads=2 --shed_high=128
//   curl -s localhost:8080/v1/batch -d '{"pairs":[[0,7]]}'
//   curl -s localhost:8080/stats
//
// --shards=N swaps the single EnginePool for a ShardedEngine: the
// collection is partitioned into N shard units (each its own pool +
// cover) behind the scatter-gather router, same routes and wire
// format (batch answers gain "resolved" and "shard_versions" fields;
// /v1/mutate answers 501). --threads then means workers PER SHARD.
//
// Runs until SIGINT/SIGTERM, printing a stats line every
// --stats_interval_s seconds; shuts down in order (stop accepting,
// then drain the pool) so in-flight requests finish.
#include <csignal>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include <optional>

#include "collection/collection.h"
#include "datagen/dblp.h"
#include "engine/engine_pool.h"
#include "engine/sharded_engine.h"
#include "engine/snapshot.h"
#include "hopi/build.h"
#include "net/server.h"
#include "net/service.h"
#include "util/cli.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void OnSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace hopi;

  CommandLine cli;
  Status parsed = CommandLine::Parse(
      argc, argv,
      {"port", "bind", "docs", "seed", "threads", "io_threads",
       "queue_capacity", "shed_high", "shed_low", "cache_kb",
       "max_connections", "stats_interval_s", "with_distance", "mutate",
       "max_delta_ops", "rebuild_poll_ms", "rebuild_degradation",
       "overlay_hop_budget", "shards", "merge_deadline_ms"},
      &cli);
  if (!parsed.ok()) {
    std::cerr << parsed << "\n";
    return 2;
  }

  const uint16_t port = static_cast<uint16_t>(cli.GetInt("port", 8080));
  const std::string bind = cli.GetString("bind", "127.0.0.1");
  const size_t docs = static_cast<size_t>(cli.GetInt("docs", 800));
  const uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 42));
  const int stats_interval =
      static_cast<int>(cli.GetInt("stats_interval_s", 10));

  std::cerr << "building collection (" << docs << " docs, seed " << seed
            << ")...\n";
  collection::Collection collection;
  datagen::DblpConfig config;
  config.num_docs = docs;
  config.seed = seed;
  if (auto report = datagen::GenerateDblpCollection(config, &collection);
      !report.ok()) {
    std::cerr << report.status() << "\n";
    return 1;
  }
  const bool with_distance = cli.GetInt("with_distance", 1) != 0;
  const bool mutate = cli.GetInt("mutate", 0) != 0;
  const size_t shards = static_cast<size_t>(cli.GetInt("shards", 0));
  if (shards > 0 && mutate) {
    std::cerr << "--mutate is not supported with --shards\n";
    return 2;
  }

  std::unique_ptr<engine::EnginePool> pool;
  std::unique_ptr<engine::RebuildDaemon> daemon;
  std::optional<engine::ShardPlan> shard_plan;
  std::unique_ptr<engine::ShardedEngine> sharded;
  std::unique_ptr<net::ReachabilityService> service;

  const size_t max_delta_ops =
      static_cast<size_t>(cli.GetInt("max_delta_ops", 1024));
  if (shards > 0) {
    std::cerr << "building " << shards << "-shard plan over "
              << collection.NumElements() << " elements...\n";
    engine::ShardPlanOptions plan_options;
    plan_options.num_shards = shards;
    plan_options.with_distance = with_distance;
    plan_options.num_threads = std::thread::hardware_concurrency();
    auto plan = engine::BuildShardPlan(&collection, plan_options);
    if (!plan.ok()) {
      std::cerr << plan.status() << "\n";
      return 1;
    }
    shard_plan = std::move(plan).value();
    std::cerr << "plan: " << shard_plan->num_shards << " shards over "
              << shard_plan->stats.num_partitions << " partitions, "
              << shard_plan->stats.cross_shard_links << " cross-shard links, "
              << shard_plan->stats.cross_shard_routes
              << " skeleton routes\n";
    engine::ShardedEngineOptions engine_options;
    // --threads means workers PER SHARD here (0 = one per core).
    engine_options.threads_per_shard =
        static_cast<size_t>(cli.GetInt("threads", 1));
    engine_options.label_cache_bytes =
        static_cast<size_t>(cli.GetInt("cache_kb", 4096)) * 1024;
    engine_options.queue_capacity =
        static_cast<size_t>(cli.GetInt("queue_capacity", 128));
    engine_options.merge_deadline =
        std::chrono::milliseconds(cli.GetInt("merge_deadline_ms", 2000));
    sharded = std::make_unique<engine::ShardedEngine>(
        &collection, &*shard_plan, engine_options);
    service = std::make_unique<net::ReachabilityService>(sharded.get());
  } else {
    std::cerr << "building index over " << collection.NumElements()
              << " elements...\n";
    IndexBuildOptions build_options;
    // Distance labels cost a little build time but make
    // "want_distances" batches meaningful; --with_distance=0 opts out.
    build_options.with_distance = with_distance;
    // The build runs before serving starts, so it may use every core.
    build_options.num_threads = std::thread::hardware_concurrency();
    IndexBuildStats build_stats;
    auto index = BuildIndex(&collection, build_options, &build_stats);
    if (!index.ok()) {
      std::cerr << index.status() << "\n";
      return 1;
    }
    std::cerr << "index built in " << build_stats.total_seconds
              << " s: partition " << build_stats.partition_seconds
              << " s, covers " << build_stats.covers_seconds << " s (closure "
              << build_stats.cover_build.closure_seconds << " s, seed "
              << build_stats.cover_build.seed_seconds << " s, greedy "
              << build_stats.cover_build.greedy_seconds << " s), join "
              << build_stats.join_seconds << " s; "
              << build_stats.num_threads << " threads, "
              << build_stats.num_partitions << " partitions ("
              << build_stats.partitions_in_turn << " in turn), largest "
              << build_stats.largest_partition_connections << " of "
              << build_stats.total_partition_connections
              << " connections; " << build_stats.cover_entries
              << " cover entries\n";
    auto snapshot = engine::BackendSnapshot::Freeze(*index);

    engine::EnginePoolOptions pool_options;
    pool_options.num_threads = static_cast<size_t>(cli.GetInt("threads", 0));
    pool_options.label_cache_bytes =
        static_cast<size_t>(cli.GetInt("cache_kb", 4096)) * 1024;
    pool_options.queue_capacity =
        static_cast<size_t>(cli.GetInt("queue_capacity", 128));
    pool_options.shed_high_watermark =
        static_cast<size_t>(cli.GetInt("shed_high", 256));
    pool_options.shed_low_watermark =
        static_cast<size_t>(cli.GetInt("shed_low", 0));
    pool_options.overlay_hop_budget =
        static_cast<size_t>(cli.GetInt("overlay_hop_budget", 8));
    if (mutate) {
      // Hard shed at 4x the daemon's absorb trigger: the write path
      // backpressures (429) instead of growing the delta unboundedly if
      // rebuilds cannot keep up.
      pool_options.max_delta_ops = max_delta_ops * 4;
    }
    pool = std::make_unique<engine::EnginePool>(snapshot, pool_options);

    if (mutate) {
      if (Status armed = pool->EnableMutations(*index); !armed.ok()) {
        std::cerr << armed << "\n";
        return 1;
      }
      engine::RebuildDaemon::Options daemon_options;
      daemon_options.poll_interval =
          std::chrono::milliseconds(cli.GetInt("rebuild_poll_ms", 250));
      daemon_options.max_delta_ops = max_delta_ops;
      daemon_options.degradation_threshold =
          cli.GetDouble("rebuild_degradation", 2.0);
      daemon = std::make_unique<engine::RebuildDaemon>(pool.get(),
                                                       daemon_options);
    }
    service = std::make_unique<net::ReachabilityService>(pool.get());
    if (mutate) service->EnableMutations();
  }
  net::HttpServerOptions server_options;
  server_options.bind_address = bind;
  server_options.port = port;
  server_options.num_io_threads =
      static_cast<size_t>(cli.GetInt("io_threads", 1));
  server_options.max_connections =
      static_cast<size_t>(cli.GetInt("max_connections", 1024));
  net::HttpServer server(service->AsHandler(), server_options);
  service->BindServerStats([&server] { return server.Stats(); });

  if (Status started = server.Start(); !started.ok()) {
    std::cerr << started << "\n";
    return 1;
  }
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::cout << "serving http://" << bind << ":" << server.port() << "  (";
  if (sharded) {
    std::cout << sharded->num_shards() << " shards";
  } else {
    std::cout << pool->num_threads() << " workers";
  }
  std::cout << ", " << server_options.num_io_threads << " io threads)\n";
  std::cout << "try:  curl -s " << bind << ":" << server.port()
            << "/v1/batch -d '{\"pairs\":[[0,7]],\"want_distances\":true}'\n";
  if (mutate) {
    std::cout << "mutations on (absorb at " << max_delta_ops
              << " delta ops):  curl -s " << bind << ":" << server.port()
              << "/v1/mutate -d "
              << "'{\"op\":\"insert_link\",\"source\":0,\"target\":7}'\n";
  }
  // stdout is block-buffered when piped: flush so the banner and every
  // [stats] line show up as they are printed, not at exit.
  std::cout << std::flush;

  int since_report = 0;
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::seconds(1));
    if (stats_interval > 0 && ++since_report >= stats_interval) {
      since_report = 0;
      net::ServerStats http = server.Stats();
      std::cout << "[stats] requests=" << http.requests
                << " responses=" << http.responses
                << " open_conns=" << http.open_connections;
      if (sharded) {
        engine::ShardStats stats = sharded->Stats();
        std::cout << " batches=" << stats.batches
                  << " direct=" << stats.direct_pairs
                  << " cross=" << stats.cross_pairs
                  << " subbatches=" << stats.subbatches
                  << " partial=" << stats.partial_batches << std::endl;
        continue;
      }
      engine::PoolStats stats = pool->Stats();
      std::cout << " batches=" << stats.batches
                << " path_queries=" << stats.path_queries
                << " sheds=" << stats.sheds
                << " queued=" << stats.queued;
      if (mutate) {
        std::cout << " mutations=" << stats.mutations
                  << " delta_ops=" << stats.delta_ops
                  << " rebuilds=" << stats.rebuilds
                  << " degradation=" << stats.degradation;
      }
      std::cout << (stats.shedding ? " SHEDDING" : "") << std::endl;
    }
  }
  std::cout << "\nshutting down...\n";
  server.Stop();    // no new requests; in-flight responders drop safely
  if (daemon) daemon->Stop();   // no rebuild racing the drain
  if (pool) pool->Shutdown();   // drain queued work
  if (sharded) sharded->Shutdown();  // fail outstanding merges, drain shards
  return 0;
}
