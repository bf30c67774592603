// Shared helpers for the benchmark harnesses.
//
// Every bench binary prints rows shaped like the paper's tables and
// accepts --docs / --seed flags to scale the synthetic collections. We
// print the measured table plus the workload parameters so runs are
// self-describing.
#pragma once

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "collection/collection.h"
#include "datagen/dblp.h"
#include "datagen/inex.h"
#include "graph/closure.h"
#include "util/cli.h"
#include "util/table_printer.h"

namespace hopi::bench {

/// Machine-readable twin of the printed tables: a flat, ordered
/// key -> value map written as `BENCH_<name>.json` in the working
/// directory, so CI and the experiment notes can diff runs without
/// scraping stdout. Hand-rolled writer — two value kinds (number,
/// string), no dependencies, deterministic field order.
///
///   BenchReport report("storage_io");
///   report.Add("v4_bytes_per_entry", 3.71);
///   report.Add("format", "v4");
///   report.Write();          // -> BENCH_storage_io.json
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    fields_.emplace_back(key, std::string(buf));
  }
  void Add(const std::string& key, uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void Add(const std::string& key, const std::string& value) {
    // Appends, not "\"" + std::string: GCC 12 at -O3 reports a false
    // -Wrestrict on the latter.
    std::string quoted = "\"";
    quoted += Escaped(value);
    quoted += '"';
    fields_.emplace_back(key, std::move(quoted));
  }

  /// Records what the numbers were measured with: build type, compiler
  /// and the machine's hardware thread count.
  void AddBuildInfo() {
#ifdef HOPI_BUILD_TYPE
    Add("build_type", std::string(HOPI_BUILD_TYPE));
#endif
#if defined(__clang__)
    Add("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    Add("compiler", std::string("gcc ") + __VERSION__);
#endif
    Add("nproc", static_cast<uint64_t>(std::thread::hardware_concurrency()));
  }

  /// Writes BENCH_<name>.json; reports (but tolerates) IO failure on
  /// stderr so a read-only working directory never fails a bench run.
  void Write() const {
    std::string path = "BENCH_" + name_ + ".json";
    FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      std::cerr << "BenchReport: cannot write " << path << "\n";
      return;
    }
    std::string json = ToJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::cout << "\nwrote " << path << "\n";
  }

  std::string ToJson() const {
    std::string out = "{\n  \"bench\": \"";
    out += Escaped(name_);
    out += '"';
    for (const auto& [key, value] : fields_) {
      out += ",\n  \"";
      out += Escaped(key);
      out += "\": ";
      out += value;
    }
    out += "\n}\n";
    return out;
  }

 private:
  static std::string Escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Scaled stand-in for the paper's DBLP subset (6,210 docs / 168,991
/// elements / 25,368 links). Default 800 docs keeps every bench binary in
/// the tens of seconds; pass --docs=6210 to approach paper scale.
inline collection::Collection MakeDblp(size_t docs, uint64_t seed) {
  collection::Collection c;
  datagen::DblpConfig config;
  config.num_docs = docs;
  config.seed = seed;
  auto report = datagen::GenerateDblpCollection(config, &c);
  if (!report.ok()) {
    std::cerr << "datagen failed: " << report.status() << "\n";
    std::exit(1);
  }
  return c;
}

/// Scaled INEX stand-in (paper: 12,232 docs / 12M elements / no links).
inline collection::Collection MakeInex(size_t docs, size_t elements_per_doc,
                                       uint64_t seed) {
  collection::Collection c;
  datagen::InexConfig config;
  config.num_docs = docs;
  config.mean_elements_per_doc = elements_per_doc;
  config.seed = seed;
  auto report = datagen::GenerateInexCollection(config, &c);
  if (!report.ok()) {
    std::cerr << "datagen failed: " << report.status() << "\n";
    std::exit(1);
  }
  return c;
}

/// Paper compression metric: closure connections per stored cover entry
/// (345M / 15.9M = 21.6 for the EDBT'04 baseline, 267 for the global
/// cover — Sec 7.2).
inline double Compression(uint64_t closure_connections,
                          uint64_t cover_entries) {
  if (cover_entries == 0) return 0.0;
  return static_cast<double>(closure_connections) /
         static_cast<double>(cover_entries);
}

inline CommandLine ParseFlagsOrDie(int argc, char** argv,
                                   const std::vector<std::string>& known) {
  CommandLine cli;
  Status s = CommandLine::Parse(argc, argv, known, &cli);
  if (!s.ok()) {
    std::cerr << s << "\n";
    std::exit(2);
  }
  return cli;
}

inline void PrintHeader(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

}  // namespace hopi::bench
