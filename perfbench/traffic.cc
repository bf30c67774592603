#include "traffic.h"

#include <unordered_map>
#include <unordered_set>

#include "util/rng.h"

namespace perfbench {

using hopi::collection::DocId;
using hopi::engine::Mutation;
using hopi::engine::NewElementSpec;

std::string BatchBody(const std::vector<NodePair>& pairs) {
  std::string body = "{\"pairs\":[";
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0) body += ',';
    body += '[' + std::to_string(pairs[i].first) + ',' +
            std::to_string(pairs[i].second) + ']';
  }
  body += "]}";
  return body;
}

std::vector<Batch> MakeBatches(uint64_t seed, uint64_t num_elements,
                               size_t count, size_t pairs, double zipf_s) {
  hopi::Rng rng(seed);
  std::vector<Batch> batches(count);
  for (Batch& b : batches) {
    b.pairs.reserve(pairs);
    for (size_t i = 0; i < pairs; ++i) {
      NodeId u = static_cast<NodeId>(rng.NextZipf(num_elements, zipf_s));
      NodeId v = static_cast<NodeId>(rng.NextZipf(num_elements, zipf_s));
      b.pairs.emplace_back(u, v);
    }
    b.body = BatchBody(b.pairs);
  }
  return batches;
}

std::vector<PathSpec> PathSet() {
  // Cheap and expensive shapes of both kinds. count_only enumerates
  // Descendants() of every candidate of each step; materializing
  // queries stop at max_matches, except when the result is empty.
  std::vector<PathSpec> set = {
      {"//inproceedings//author", true, 1000, ""},   // ~1 s at 1,000 docs
      {"//footnote//author", true, 1000, ""},
      {"//abstract//sentence", true, 1000, ""},
      {"//footnote//author", false, 1000, ""},
      {"//sentence//cite//author", false, 1000, ""}, // empty, ~250 ms
      {"//inproceedings//cite//author", false, 1000, ""},
      {"//abstract//sentence", false, 1000, ""},
      {"//footnote//title", false, 1000, ""},        // empty
      {"//abstract//cite", false, 1000, ""},         // empty, ~50 ms
      {"//author", false, 1000, ""},
  };
  for (PathSpec& p : set) {
    p.body = "{\"expression\":\"" + p.expression +
             "\",\"max_matches\":" + std::to_string(p.max_matches) +
             ",\"count_only\":" + (p.count_only ? "true" : "false") + "}";
  }
  return set;
}

namespace {

uint64_t EdgeKey(NodeId u, NodeId v) {
  return (static_cast<uint64_t>(u) << 32) | v;
}

/// A small DBLP-shaped publication: the tags the path set asks for.
std::vector<NewElementSpec> NewPublication(hopi::Rng* rng) {
  std::vector<NewElementSpec> e = {{"inproceedings", std::nullopt},
                                   {"title", 0u},
                                   {"year", 0u}};
  const int authors = 1 + static_cast<int>(rng->NextBounded(3));
  for (int i = 0; i < authors; ++i) e.push_back({"author", 0u});
  const int cites = static_cast<int>(rng->NextBounded(3));
  for (int i = 0; i < cites; ++i) e.push_back({"cite", 0u});
  return e;
}

}  // namespace

std::vector<Mutation> MakeOpStream(const hopi::collection::Collection& base,
                                   uint64_t seed, size_t count,
                                   const OpMix& mix) {
  hopi::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const NodeId base_elements = static_cast<NodeId>(base.NumElements());
  NodeId next_element = base_elements;
  DocId next_doc = static_cast<DocId>(base.NumDocuments());

  std::unordered_set<uint64_t> edges;  // every link, base and new
  for (const auto& link : base.Links()) {
    edges.insert(EdgeKey(link.source, link.target));
  }
  struct NewDoc {
    DocId doc;
    NodeId first;
    uint32_t n;
  };
  std::vector<NewDoc> live_docs;
  std::unordered_map<NodeId, DocId> doc_of_new;
  auto doc_of = [&](NodeId e) -> DocId {
    return e < base_elements ? base.DocOf(e) : doc_of_new.at(e);
  };
  auto pick_source = [&]() -> NodeId {
    if (!live_docs.empty() && rng.NextBernoulli(0.3)) {
      const NewDoc& d = live_docs[rng.NextBounded(live_docs.size())];
      return d.first + static_cast<NodeId>(rng.NextBounded(d.n));
    }
    return static_cast<NodeId>(rng.NextBounded(base_elements));
  };

  std::vector<Mutation> ops;
  const int total =
      mix.insert_link + mix.insert_document + mix.delete_document;
  while (ops.size() < count) {
    const int roll = static_cast<int>(rng.NextBounded(total));
    Mutation m;
    if (roll < mix.insert_link) {
      NodeId u = pick_source();
      NodeId v = static_cast<NodeId>(rng.NextBounded(base_elements));
      if (doc_of(u) == doc_of(v) || !edges.insert(EdgeKey(u, v)).second) {
        continue;
      }
      m = Mutation::InsertLink(u, v);
    } else if (roll < mix.insert_link + mix.insert_document) {
      std::vector<NewElementSpec> elements = NewPublication(&rng);
      const uint32_t n = static_cast<uint32_t>(elements.size());
      live_docs.push_back({next_doc, next_element, n});
      for (uint32_t i = 0; i < n; ++i) doc_of_new[next_element + i] = next_doc;
      m = Mutation::InsertDocument(
          "perfbench-" + std::to_string(seed) + "-" +
              std::to_string(ops.size()) + ".xml",
          std::move(elements));
      ++next_doc;
      next_element += n;
    } else {
      if (live_docs.empty()) continue;
      const size_t i = rng.NextBounded(live_docs.size());
      const NewDoc d = live_docs[i];
      live_docs[i] = live_docs.back();
      live_docs.pop_back();
      // Its elements are never picked again, so the links it leaves in
      // `edges` cannot be proposed twice.
      m = Mutation::DeleteDocument(d.doc);
    }
    ops.push_back(std::move(m));
  }
  return ops;
}

}  // namespace perfbench
