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
// Evaluation is set-at-a-time, then output-sensitive. A forward
// semi-join pass (Yannakakis, VLDB 1981) keeps the candidates of step
// i+1 that some survivor of step i reaches. It tests a whole candidate
// set against another with the 2-hop labels instead of pair by pair:
// the anchors' centers Lout(s) ∪ {s} go into a scratch array indexed by
// center, and each probe t is kept when one of Lin(t) ∪ {t} is there
// (Cohen et al., SODA 2002). That costs O(sum of label sizes) where the
// per-pair test costs O(|A|·|B|) label merges. Reachability is
// *strict*: a pair binds two different elements, so t needs an anchor
// s != t. The scratch keeps up to two distinct anchors per center,
// which keeps that exclusion exact when s and t share a center — a
// node on a link cycle reaches itself through its own labels.
// CountPathResults is this forward chain alone.
//
// EvaluatePath's forward pass also files every survivor t under each
// center of Lin(t) ∪ {t} (the step's center lists), from the labels the
// pass fetched anyway. The depth-first enumeration then expands a
// binding s by walking Lout(s) ∪ {s} and reading those centers' lists:
// exactly the survivors s reaches, with dist(s, t) as the least
// dout + din over their shared centers. Sorted by candidate order they
// are the bindings the pair-by-pair enumeration would make, so the
// match sequence, the max_matches cut-off, the scores and distances do
// not change, and the cost follows the matches instead of
// |survivors(i)| × |survivors(i+1)| probes. A candidate whose subtree
// was explored without a match is marked dead and never expanded again
// (its subtree does not depend on the binding before it), which is
// what a backward pass would have pruned up front.
//
// Labels come from a LabelSource; engine::QueryEngine passes one over
// its label fetch (memo → block → borrow), so a corrupt block surfaces
// as the query's Corruption status instead of a short answer. Without a
// label source — backends with HasLabels() == false (closure, delta
// overlay, sharded) or a direct call without one — CountPathResults
// takes each anchor's Descendants as its center set and the probe alone
// as its own: the same test, fed by the backend's axis enumeration.
// EvaluatePath skips the forward pass there and binds each step by
// pair probes, because a Descendants enumeration per candidate costs
// more than the pair probes of an enumeration that stops at
// max_matches. Most callers should go through the engine::QueryEngine
// facade rather than calling these free functions directly.
#pragma once

#include <cstddef>
#include <cstdint>
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

/// Lends the evaluator one 2-hop label at a time.
class LabelSource {
 public:
  virtual ~LabelSource() = default;

  /// Lout(node) when `out`, else Lin(node). The view stays valid while
  /// the returned PinnedJoin lives. A failed fetch returns an empty
  /// view and records its status in `*error` unless one is already set.
  virtual engine::PinnedJoin Fetch(bool out, NodeId node,
                                   Status* error) const = 0;
};

/// One step's center lists, built by the forward pass over the step's
/// survivors: for each center c, a chain from head[c] through
/// entries[].next of the survivors t with c ∈ Lin(t) ∪ {t}, each with
/// din(c, t). Heads are stamped with the query that wrote them. The
/// rest is the enumeration's per-survivor state.
struct CenterLists {
  static constexpr uint32_t kEnd = UINT32_MAX;
  struct Head {
    uint32_t epoch = 0;
    uint32_t first = kEnd;
  };
  struct Entry {
    uint32_t candidate;  // index into the step's survivors
    uint32_t dist;       // din(center, candidate); 0 for the self center
    uint32_t next;       // the center's next entry, or kEnd
  };
  std::vector<Head> head;       // by center
  std::vector<Entry> entries;
  std::vector<uint8_t> dead;    // subtree explored without a match
  std::vector<uint32_t> seen;   // expansion stamp of the last gather
  std::vector<uint32_t> dist;   // least distance from the binding expanded
  std::vector<uint32_t> order;  // the survivors one expansion gathered
};

/// Scratch for path evaluation: one slot per center for the forward
/// pass, and the center lists of each step. Slots and list heads are
/// stamped with the pass or query that wrote them, so a pass starts in
/// O(1) and a long-lived owner (one per QueryEngine) allocates only when
/// the collection or the candidate sets grow.
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

  /// Starts a query's center lists: every head written before reads
  /// as empty, and there is room for `steps` steps.
  void BeginLists(size_t steps) {
    if (lists_.size() < steps) lists_.resize(steps);
    if (++list_epoch_ == 0) {
      for (CenterLists& lists : lists_) {
        for (CenterLists::Head& head : lists.head) head.epoch = 0;
      }
      list_epoch_ = 1;
    }
  }

  /// Files survivor `candidate` under `center` at distance `dist`.
  void AddToList(CenterLists& lists, NodeId center, uint32_t candidate,
                 uint32_t dist) {
    if (center >= lists.head.size()) lists.head.resize(size_t{center} + 1);
    CenterLists::Head& head = lists.head[center];
    if (head.epoch != list_epoch_) head = {list_epoch_, CenterLists::kEnd};
    lists.entries.push_back({candidate, dist, head.first});
    head.first = static_cast<uint32_t>(lists.entries.size() - 1);
  }

  /// The first entry of `center`'s chain in `lists`, or kEnd.
  uint32_t ListHead(const CenterLists& lists, NodeId center) const {
    if (center >= lists.head.size()) return CenterLists::kEnd;
    const CenterLists::Head& head = lists.head[center];
    return head.epoch == list_epoch_ ? head.first : CenterLists::kEnd;
  }

  CenterLists& lists(size_t step) { return lists_[step]; }

 private:
  struct Slot {
    uint32_t epoch = 0;
    NodeId first = 0;
    NodeId second = 0;  // == first until a second anchor shows up
  };
  std::vector<Slot> slots_;
  uint32_t epoch_ = 0;
  uint32_t list_epoch_ = 0;
  std::vector<CenterLists> lists_;
};

/// What the evaluator runs on. Both are optional: without `labels`
/// counting falls back to the backend's Descendants and EvaluatePath
/// binds by pair probes, and without `scratch` each call allocates its
/// own.
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
