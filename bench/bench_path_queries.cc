// Path-query latency in process: the perfbench `path` set (the same
// ten expressions, count_only and materializing, at most 1,000 matches)
// on the distance-aware index of the DBLP collection hopi_serve builds
// (--docs documents, generator seed --seed). Each query runs --reps
// times after one untimed warm-up; the table shows the per-query median
// and the JSON adds their geometric mean, the in-process twin of the
// benchmark's `path` p50_us.
//
//   bench_path_queries --docs=1000 --reps=30   # -> BENCH_path_queries.json
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "engine/engine.h"
#include "hopi/build.h"
#include "util/timer.h"

namespace {

struct PathSpec {
  const char* expression;
  bool count_only;
  const char* key;  // JSON key stem
};

/// The perfbench path set, in its order.
const PathSpec kPathSet[] = {
    {"//inproceedings//author", true, "count_inproceedings_author"},
    {"//footnote//author", true, "count_footnote_author"},
    {"//abstract//sentence", true, "count_abstract_sentence"},
    {"//footnote//author", false, "footnote_author"},
    {"//sentence//cite//author", false, "sentence_cite_author"},
    {"//inproceedings//cite//author", false, "inproceedings_cite_author"},
    {"//abstract//sentence", false, "abstract_sentence"},
    {"//footnote//title", false, "footnote_title"},
    {"//abstract//cite", false, "abstract_cite"},
    {"//author", false, "author"},
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hopi;
  CommandLine cli =
      bench::ParseFlagsOrDie(argc, argv, {"docs", "seed", "reps"});
  const size_t docs = static_cast<size_t>(cli.GetInt("docs", 1000));
  const uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 42));
  const size_t reps = std::max<int64_t>(1, cli.GetInt("reps", 30));

  collection::Collection collection;
  datagen::DblpConfig config;
  config.num_docs = docs;
  config.seed = seed;
  if (auto report = datagen::GenerateDblpCollection(config, &collection);
      !report.ok()) {
    std::cerr << report.status() << "\n";
    return 1;
  }
  IndexBuildOptions build_options;
  build_options.with_distance = true;
  auto index = BuildIndex(&collection, build_options);
  if (!index.ok()) {
    std::cerr << index.status() << "\n";
    return 1;
  }
  engine::QueryEngine engine = engine::QueryEngine::ForIndex(*index);

  bench::PrintHeader("Path queries, in process (perfbench path set)");
  std::cout << docs << " DBLP docs (seed " << seed << "), "
            << collection.NumElements() << " elements, distance-aware; "
            << reps << " reps per query\n\n";

  bench::BenchReport report("path_queries");
  report.AddBuildInfo();
  report.Add("docs", static_cast<uint64_t>(docs));
  report.Add("elements", static_cast<uint64_t>(collection.NumElements()));
  report.Add("reps", static_cast<uint64_t>(reps));

  TablePrinter table({"query", "mode", "count", "median us"});
  double log_sum = 0.0;
  for (const PathSpec& spec : kPathSet) {
    const engine::PathQueryRequest request{.expression = spec.expression,
                                           .max_matches = 1000,
                                           .count_only = spec.count_only};
    size_t count = 0;
    std::vector<double> micros;
    micros.reserve(reps);
    for (size_t r = 0; r <= reps; ++r) {  // r == 0 warms up
      Stopwatch watch;
      auto response = engine.Query(request);
      const double us = watch.ElapsedSeconds() * 1e6;
      if (!response.ok()) {
        std::cerr << spec.expression << ": " << response.status() << "\n";
        return 1;
      }
      count = response->count;
      if (r > 0) micros.push_back(us);
    }
    const double median = Median(std::move(micros));
    log_sum += std::log(median);
    char cell[32];
    std::snprintf(cell, sizeof(cell), "%.1f", median);
    table.AddRow({spec.expression, spec.count_only ? "count" : "match",
                  std::to_string(count), cell});
    report.Add(std::string(spec.key) + "_count", static_cast<uint64_t>(count));
    report.Add(std::string(spec.key) + "_median_us", median);
  }
  const double geomean =
      std::exp(log_sum / static_cast<double>(std::size(kPathSet)));
  table.Print(std::cout);
  std::printf("\ngeomean of per-query medians: %.1f us\n", geomean);
  report.Add("geomean_us", geomean);
  report.Write();
  return 0;
}
