// Sec 5 claim: "low space overhead for including distance information in
// the index." Compares plain vs distance-aware builds: cover entries,
// stored integers (the DIST column adds one integer per row), build time,
// and where the cover builds spent it (closure / priority seeding /
// greedy loop, summed over partitions). Writes
// BENCH_distance_overhead.json.
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "hopi/build.h"
#include "util/timer.h"

namespace {

/// Integers the LIN/LOUT tables store for `entries` cover entries — the
/// arithmetic of MappedLinLoutStore::StorageIntegers, without writing
/// the file: 2 per row (3 with DIST), doubled by the backward index.
uint64_t StorageIntegers(uint64_t entries, bool with_distance) {
  return entries * (2 + (with_distance ? 1 : 0)) * 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hopi;
  using namespace hopi::bench;
  CommandLine cli = ParseFlagsOrDie(argc, argv, {"docs", "seed"});
  size_t docs = static_cast<size_t>(cli.GetInt("docs", 250));
  uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 42));

  // Two partitionings: small TC-size-aware partitions (30,000
  // connections), and the default PartitionOptions that hopi_serve
  // builds with, where one partition holds most connections and the
  // distance-aware cover build dominates set-up time.
  partition::PartitionOptions tc30k;
  tc30k.strategy = partition::PartitionStrategy::kTcSizeAware;
  tc30k.max_connections = 30000;
  const std::vector<std::pair<std::string, partition::PartitionOptions>>
      partitionings = {{"tc30k", tc30k}, {"default", {}}};

  PrintHeader("Sec 5: distance-aware index overhead");
  TablePrinter table({"docs", "partitions", "mode", "time", "covers",
                      "closure", "seed", "greedy", "entries", "stored ints",
                      "entry overhead"});
  BenchReport report("distance_overhead");
  report.AddBuildInfo();
  report.Add("docs", static_cast<uint64_t>(docs));
  report.Add("seed", seed);
  for (size_t d : {docs / 2, docs}) {
    collection::Collection c = MakeDblp(d, seed);
    for (const auto& [part_name, partition] : partitionings) {
      uint64_t plain_entries = 0;
      for (bool with_distance : {false, true}) {
        IndexBuildOptions options;
        options.partition = partition;
        options.with_distance = with_distance;
        IndexBuildStats stats;
        Stopwatch watch;
        auto index = BuildIndex(&c, options, &stats);
        if (!index.ok()) {
          std::cerr << index.status() << "\n";
          return 1;
        }
        double seconds = watch.ElapsedSeconds();
        const twohop::CoverBuildStats& cb = stats.cover_build;
        uint64_t entries = index->CoverSize();
        std::string overhead_text = "-";
        if (!with_distance) {
          plain_entries = entries;
        } else if (plain_entries > 0) {
          double overhead = 100.0 * (static_cast<double>(entries) /
                                         static_cast<double>(plain_entries) -
                                     1.0);
          overhead_text = "+";
          overhead_text += TablePrinter::Fmt(overhead, 1) + "%";
        }
        const std::string mode = with_distance ? "distance" : "plain";
        table.AddRow({TablePrinter::FmtCount(d), part_name, mode,
                      TablePrinter::Fmt(seconds, 2) + "s",
                      TablePrinter::Fmt(stats.covers_seconds, 2) + "s",
                      TablePrinter::Fmt(cb.closure_seconds, 2) + "s",
                      TablePrinter::Fmt(cb.seed_seconds, 2) + "s",
                      TablePrinter::Fmt(cb.greedy_seconds, 2) + "s",
                      TablePrinter::FmtCount(entries),
                      TablePrinter::FmtCount(
                          StorageIntegers(entries, with_distance)),
                      overhead_text});
        std::string key = "d";
        key += std::to_string(d);
        key += "_";
        key += part_name;
        key += "_";
        key += mode;
        report.Add(key + "_build_s", seconds);
        report.Add(key + "_covers_s", stats.covers_seconds);
        report.Add(key + "_closure_s", cb.closure_seconds);
        report.Add(key + "_seed_s", cb.seed_seconds);
        report.Add(key + "_greedy_s", cb.greedy_seconds);
        report.Add(key + "_partitions", stats.num_partitions);
        report.Add(key + "_largest_partition_connections",
                   stats.largest_partition_connections);
        report.Add(key + "_entries", entries);
      }
    }
  }
  table.Print(std::cout);
  std::cout << "\nShape check: the distance-aware cover may carry more "
               "entries (centers must lie on shortest paths), but the "
               "overhead stays a modest fraction, not a blowup; stored "
               "integers additionally grow by the DIST column (x1.5 per "
               "entry).\n";
  report.Write();
  return 0;
}
