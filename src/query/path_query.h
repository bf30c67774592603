// Wildcard path expressions over a pluggable reachability backend.
//
// Supports the paper's motivating query class: XPath-style descendant
// chains with wildcards across documents and links, e.g.
//     //book//author        //inproceedings//cite//title
// Steps are separated by // (the descendant-or-self axis over the
// element-level graph, i.e. tree edges AND links); `*` matches any tag.
// Results can be ranked by connection length, the XXL-style scoring the
// distance-aware index exists for (paper Sec 5.1).
//
// Evaluation is set-at-a-time. A chain query is acyclic, so a semi-join
// full reducer (Yannakakis, VLDB 1981) removes exactly the step
// candidates that take part in no match: a forward pass keeps the
// candidates of step i+1 that some survivor of step i reaches, and a
// backward pass keeps the candidates of step i that reach some survivor
// of step i+1. CountPathResults is the forward chain alone;
// EvaluatePath runs both passes and then the depth-first enumeration
// over what is left, so it emits exactly the match sequence, the
// max_matches cut-off, the scores and distances the unreduced
// enumeration would.
//
// Each pass tests a whole candidate set against another with the 2-hop
// labels instead of pair by pair: the anchors' centers Lout(s) ∪ {s} go
// into a scratch array indexed by center, and each probe t is kept when
// one of Lin(t) ∪ {t} is there (Cohen et al., SODA 2002). That costs
// O(sum of label sizes) where the per-pair test costs O(|A|·|B|) label
// merges. Reachability is *strict*: a pair binds two different
// elements, so t needs an anchor s != t.
// The scratch keeps up to two distinct anchors per center, which keeps
// that exclusion exact when s and t share a center — a node on a link
// cycle reaches itself through its own labels.
//
// Labels come from a LabelSource; engine::QueryEngine passes one over
// its label fetch (memo → block → borrow), so a corrupt block surfaces
// as the query's Corruption status instead of a short answer. Without a
// label source — backends with HasLabels() == false (closure, delta
// overlay, sharded) or a direct call without one — CountPathResults
// takes each anchor's Descendants as its center set and the probe alone
// as its own: the same test, fed by the backend's axis enumeration.
// EvaluatePath skips the reducer there and enumerates directly, because
// a Descendants enumeration per candidate costs more than the pair
// probes of an enumeration that stops at max_matches. Most callers
// should go through the engine::QueryEngine facade rather than calling
// these free functions directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "collection/collection.h"
#include "engine/backend.h"
#include "query/similarity.h"
#include "query/tag_index.h"
#include "util/result.h"

namespace hopi::query {

/// One step of a path expression: a tag test, the `*` wildcard, or an
/// approximate test (`~book`) expanded through a TagSimilarity registry.
struct PathStep {
  std::string tag;            // "*" = wildcard
  bool approximate = false;   // written as ~tag

  friend bool operator==(const PathStep& a, const PathStep& b) {
    return a.tag == b.tag && a.approximate == b.approximate;
  }
};

/// A parsed path expression: a chain of tag tests.
struct PathExpression {
  std::vector<PathStep> steps;

  /// Parses "//a//~b//c" (a leading // is optional; "a//b" is accepted).
  static Result<PathExpression> Parse(const std::string& text);

  std::string ToString() const;
};

/// One query match: the elements bound to each step.
struct PathMatch {
  std::vector<NodeId> bindings;  // one element per step
  /// Sum of connection lengths between consecutive bindings (only
  /// meaningful with a distance-aware backend; 0 otherwise).
  uint32_t total_distance = 0;
  /// XXL-style score: product over consecutive pairs of 1/(1+dist),
  /// additionally multiplied by the tag similarity of every approximate
  /// binding.
  double score = 1.0;
};

struct PathQueryOptions {
  /// Maximum matches to produce (the evaluator short-circuits).
  size_t max_matches = 1000;
  /// Drop matches whose hop distance between any two consecutive
  /// bindings exceeds this (paper Sec 5.1: limited-length path queries).
  uint32_t max_step_distance = UINT32_MAX;
  /// Ontology for ~tag steps; nullptr makes approximate steps behave like
  /// exact ones.
  const TagSimilarity* similarity = nullptr;
  /// Synonyms below this similarity are not expanded.
  double min_tag_similarity = 0.3;
};

/// Lends the reducer one 2-hop label at a time.
class LabelSource {
 public:
  virtual ~LabelSource() = default;

  /// Lout(node) when `out`, else Lin(node). The view stays valid while
  /// the returned PinnedJoin lives. A failed fetch returns an empty
  /// view and records its status in `*error` unless one is already set.
  virtual engine::PinnedJoin Fetch(bool out, NodeId node,
                                   Status* error) const = 0;
};

/// Scratch for the reducer's passes: one slot per center, stamped with the pass
/// that wrote it, so a pass starts in O(1) and a long-lived owner (one
/// per QueryEngine) allocates only when the collection grows.
class SemiJoinScratch {
 public:
  /// Starts a pass: every slot written before reads as empty.
  void Begin() {
    if (++epoch_ == 0) {  // wrapped: stale stamps could alias
      for (Slot& slot : slots_) slot.epoch = 0;
      epoch_ = 1;
    }
  }

  /// Records that `anchor` contributes `center`. A slot keeps the first
  /// two distinct anchors; two are enough to answer HitsOther exactly.
  void Add(NodeId center, NodeId anchor) {
    if (center >= slots_.size()) slots_.resize(size_t{center} + 1);
    Slot& slot = slots_[center];
    if (slot.epoch != epoch_) {
      slot = {epoch_, anchor, anchor};
    } else if (slot.first == slot.second && slot.first != anchor) {
      slot.second = anchor;
    }
  }

  /// True when some anchor other than `probe` contributed `center`.
  bool HitsOther(NodeId center, NodeId probe) const {
    if (center >= slots_.size()) return false;
    const Slot& slot = slots_[center];
    return slot.epoch == epoch_ &&
           (slot.first != probe || slot.second != probe);
  }

 private:
  struct Slot {
    uint32_t epoch = 0;
    NodeId first = 0;
    NodeId second = 0;  // == first until a second anchor shows up
  };
  std::vector<Slot> slots_;
  uint32_t epoch_ = 0;
};

/// What the reducer runs on. Both are optional: without `labels`
/// counting falls back to the backend's Descendants and EvaluatePath
/// does not reduce, and without `scratch` each pass allocates its own.
struct SemiJoinContext {
  const LabelSource* labels = nullptr;
  SemiJoinScratch* scratch = nullptr;
};

/// Evaluates `expr` against a reachability backend and returns matches
/// sorted by descending score (insertion order for plain backends).
/// `collection` supplies the live-element universe for wildcard steps.
Result<std::vector<PathMatch>> EvaluatePath(
    const PathExpression& expr, const engine::ReachabilityBackend& backend,
    const collection::Collection& collection, const TagIndex& tags,
    const PathQueryOptions& options = {}, const SemiJoinContext& context = {});

/// Counts distinct elements matching the final step (cheaper than
/// materializing matches; the typical "find all results" engine call).
Result<size_t> CountPathResults(const PathExpression& expr,
                                const engine::ReachabilityBackend& backend,
                                const collection::Collection& collection,
                                const TagIndex& tags,
                                const SemiJoinContext& context = {});

}  // namespace hopi::query
