#include "datagen/words.h"

namespace hopi::datagen {

namespace {

constexpr const char* kVocab[] = {
    "index",     "query",    "graph",     "cover",   "label",   "path",
    "document",  "element",  "link",      "search",  "engine",  "ranking",
    "distance",  "closure",  "partition", "center",  "node",    "edge",
    "efficient", "dynamic",  "update",    "delete",  "insert",  "skeleton",
    "adaptive",  "semantic", "retrieval", "wildcard", "ancestor", "descendant",
    "databases", "system",   "structure", "relation", "schema",  "storage"};
constexpr size_t kVocabSize = sizeof(kVocab) / sizeof(kVocab[0]);

constexpr const char* kSurnames[] = {
    "Svensson", "Weikum",  "Chen",   "Mueller", "Tanaka", "Kaplan",
    "Novak",    "Silva",   "Kumar",  "Olsen",   "Rossi",  "Petrov",
    "Schmidt",  "Dubois",  "Haas",   "Moreau",  "Lindt",  "Berger"};
constexpr size_t kSurnameCount = sizeof(kSurnames) / sizeof(kSurnames[0]);

}  // namespace

std::string RandomWord(Rng* rng) {
  return kVocab[rng->NextBounded(kVocabSize)];
}

std::string RandomWords(Rng* rng, size_t n) {
  std::string out;
  for (size_t i = 0; i < n; ++i) {
    if (i) out.push_back(' ');
    out += RandomWord(rng);
  }
  return out;
}

std::string RandomAuthorName(Rng* rng) {
  std::string initial(1, static_cast<char>('A' + rng->NextBounded(26)));
  return initial + ". " + kSurnames[rng->NextBounded(kSurnameCount)];
}

std::string Numbered(std::string_view prefix, uint64_t n,
                     std::string_view suffix) {
  std::string out(prefix);
  out += std::to_string(n);
  out += suffix;
  return out;
}

}  // namespace hopi::datagen
