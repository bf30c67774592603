// Tiny deterministic vocabulary for generated text content.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/rng.h"

namespace hopi::datagen {

/// A pseudo-English word drawn from a fixed vocabulary.
std::string RandomWord(Rng* rng);

/// `n` words joined by spaces.
std::string RandomWords(Rng* rng, size_t n);

/// A plausible author name ("K. Svensson").
std::string RandomAuthorName(Rng* rng);

/// `prefix`, the decimal `n`, then `suffix` ("pub" 7 ".xml" ->
/// "pub7.xml") — the generators' ids and document names. Built by
/// appending: GCC 12 at -O3 flags `"a" + std::to_string(n)` with a
/// false-positive -Wrestrict.
std::string Numbered(std::string_view prefix, uint64_t n,
                     std::string_view suffix = {});

}  // namespace hopi::datagen
