// Table 1 (paper Sec 7.1): "Important features of our collections of XML
// documents" — #docs, #elements, #links, size. Regenerated on the scaled
// synthetic stand-ins; the paper's values are printed for reference.
// Writes BENCH_table1_collections.json.
#include <iostream>
#include <string>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace hopi;
  using namespace hopi::bench;
  CommandLine cli = ParseFlagsOrDie(
      argc, argv, {"dblp-docs", "inex-docs", "inex-els", "seed"});
  size_t dblp_docs = static_cast<size_t>(cli.GetInt("dblp-docs", 800));
  size_t inex_docs = static_cast<size_t>(cli.GetInt("inex-docs", 200));
  size_t inex_els = static_cast<size_t>(cli.GetInt("inex-els", 300));
  uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 42));

  PrintHeader("Table 1: collection features (measured on synthetic stand-ins)");
  collection::Collection dblp = MakeDblp(dblp_docs, seed);
  collection::Collection inex = MakeInex(inex_docs, inex_els, seed);

  TablePrinter table({"Coll.", "# docs", "# els", "# links", "size"});
  BenchReport report("table1_collections");
  report.AddBuildInfo();
  report.Add("seed", seed);
  report.Add("inex_elements_per_doc", static_cast<uint64_t>(inex_els));
  auto add = [&table, &report](const std::string& name,
                               const std::string& key,
                               const collection::Collection& c) {
    // Table 1 counts all links; for INEX these are intra-document refs.
    size_t links = c.NumInterLinks() + c.NumIntraLinks();
    const double size_mb = static_cast<double>(c.ApproximateSizeBytes()) / 1e6;
    table.AddRow({name, TablePrinter::FmtCount(c.NumLiveDocuments()),
                  TablePrinter::FmtCount(c.NumElements()),
                  TablePrinter::FmtCount(links),
                  TablePrinter::Fmt(size_mb, 1) + "MB"});
    report.Add(key + "_docs", static_cast<uint64_t>(c.NumLiveDocuments()));
    report.Add(key + "_elements", static_cast<uint64_t>(c.NumElements()));
    report.Add(key + "_links", static_cast<uint64_t>(links));
    report.Add(key + "_size_mb", size_mb);
  };
  add("DBLP", "dblp", dblp);
  add("INEX", "inex", inex);
  table.Print(std::cout);

  std::cout << "\nPaper (Table 1): DBLP 6,210 docs / 168,991 els / 25,368 "
               "links / 13.2MB; INEX 12,232 docs / 12,061,348 els / 408,085 "
               "links / 534MB\n";
  std::cout << "Per-doc ratios -- paper DBLP: 27.2 els/doc, 4.1 links/doc; "
               "measured DBLP: "
            << TablePrinter::Fmt(
                   static_cast<double>(dblp.NumElements()) / dblp_docs, 1)
            << " els/doc, "
            << TablePrinter::Fmt(
                   static_cast<double>(dblp.NumInterLinks()) / dblp_docs, 1)
            << " links/doc\n";
  report.Write();
  return 0;
}
