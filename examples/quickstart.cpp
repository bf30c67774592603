// Quickstart: parse a few linked XML documents, build a HOPI index, and
// ask reachability / distance / descendant questions across documents
// through the QueryEngine facade.
//
//   $ ./quickstart
//
// Walks through the full public API surface in ~100 lines.
#include <iostream>

#include "collection/builder.h"
#include "engine/engine.h"
#include "hopi/build.h"
#include "xml/parser.h"

int main() {
  using namespace hopi;

  // 1. Parse XML documents. Links use xlink:href (cross-document) and
  //    idref (within-document) attributes.
  const char* library_xml =
      "<library>"
      "  <book id=\"b1\"><title>Index Structures</title>"
      "    <chapter><author>A. Smith</author>"
      "      <cite xlink:href=\"papers.xml#hopi\"/></chapter>"
      "  </book>"
      "</library>";
  const char* papers_xml =
      "<proceedings>"
      "  <paper id=\"hopi\"><title>HOPI</title>"
      "    <author>R. Schenkel</author></paper>"
      "  <paper id=\"other\"><title>Other</title></paper>"
      "</proceedings>";

  auto library = xml::ParseDocument(library_xml, "library.xml");
  auto papers = xml::ParseDocument(papers_xml, "papers.xml");
  if (!library.ok() || !papers.ok()) {
    std::cerr << "parse failed\n";
    return 1;
  }

  // 2. Ingest into a collection; references resolve across documents.
  collection::Collection collection;
  collection::Ingestor ingestor(&collection);
  if (!ingestor.Ingest(*library).ok() || !ingestor.Ingest(*papers).ok()) {
    std::cerr << "ingest failed\n";
    return 1;
  }
  std::cout << "collection: " << collection.NumLiveDocuments()
            << " documents, " << collection.NumElements() << " elements, "
            << collection.NumInterLinks() << " inter-document links\n";

  // 3. Build the HOPI index (distance-aware so we can rank by proximity).
  IndexBuildOptions options;
  options.with_distance = true;
  auto index = BuildIndex(&collection, options);
  if (!index.ok()) {
    std::cerr << "build failed: " << index.status() << "\n";
    return 1;
  }
  std::cout << "index built: " << index->CoverSize() << " label entries\n";

  // 4. Wrap the index in the QueryEngine facade — the single entry point
  //    for reachability, batches, and path queries. Other backends
  //    (the LIN/LOUT file reader, the closure baseline) plug into the
  //    same facade.
  engine::QueryEngine engine = engine::QueryEngine::ForIndex(*index);

  // 5. Reachability across the citation link: the book's root reaches the
  //    cited paper's author element.
  auto lib_doc = collection.FindDocument("library.xml");
  NodeId book_root = collection.RootOf(*lib_doc);
  NodeId hopi_author = engine.tags().Lookup("author")[1];
  engine::ReachabilityResponse reach = engine.Reachability(
      {.source = book_root, .target = hopi_author, .want_distance = true});
  std::cout << "book root ->* cited author? "
            << (reach.reachable ? "yes" : "no") << " (distance "
            << reach.distance.value_or(0) << ")\n";

  // 6. Wildcard path query crossing the link: //book//author finds both
  //    the book's own author and the cited paper's author.
  auto response = engine.Query({.expression = "//book//author"});
  if (!response.ok()) {
    std::cerr << response.status() << "\n";
    return 1;
  }
  std::cout << "//book//author matches (ranked by connection length):\n";
  for (const auto& m : response->matches) {
    NodeId author = m.bindings.back();
    std::cout << "  element #" << author << " in "
              << collection.DocName(collection.DocOf(author))
              << "  distance=" << m.total_distance << "  score="
              << m.score << "\n";
  }

  // 7. Batched reachability: repeated probes are deduped and label sets
  //    are reused (borrowed zero-copy from the in-memory cover here;
  //    file-backed stores go through the LRU cache instead). The stats
  //    come back with the answers.
  engine::BatchRequest batch;
  for (NodeId e = 0; e < collection.NumElements(); ++e) {
    if (e == book_root) continue;  // reachability is reflexive
    batch.pairs.push_back({book_root, e});
    batch.pairs.push_back({book_root, e});  // duplicate on purpose
  }
  engine::BatchResponse bulk = engine.Batch(batch);
  size_t reachable_count = 0;
  for (bool r : bulk.reachable) reachable_count += r ? 1 : 0;
  std::cout << "batch: " << bulk.stats.probes << " probes -> "
            << bulk.stats.unique_probes << " unique, "
            << bulk.stats.labels_borrowed << " label reads (zero-copy), "
            << reachable_count / 2 << " elements reachable from the book\n";

  // 8. Descendant enumeration (the // axis over trees AND links).
  std::cout << "book root has " << engine.Descendants(book_root).size()
            << " descendants (crossing the citation into papers.xml)\n";
  return 0;
}
