#include "query/path_query.h"

#include <algorithm>
#include <cassert>

namespace hopi::query {

Result<PathExpression> PathExpression::Parse(const std::string& text) {
  PathExpression expr;
  size_t pos = 0;
  if (text.rfind("//", 0) == 0) pos = 2;
  while (pos < text.size()) {
    size_t next = text.find("//", pos);
    std::string step = next == std::string::npos
                           ? text.substr(pos)
                           : text.substr(pos, next - pos);
    if (step.empty()) {
      return Status::InvalidArgument("empty step in path expression '" +
                                     text + "'");
    }
    if (step.find('/') != std::string::npos) {
      return Status::InvalidArgument(
          "only the // axis is supported (got '" + step + "')");
    }
    bool approximate = step[0] == '~';
    if (approximate) step = step.substr(1);
    if (step.empty() || (approximate && step == "*")) {
      return Status::InvalidArgument("malformed step in '" + text + "'");
    }
    expr.steps.push_back({std::move(step), approximate});
    pos = next == std::string::npos ? text.size() : next + 2;
  }
  if (expr.steps.empty()) {
    return Status::InvalidArgument("empty path expression");
  }
  return expr;
}

std::string PathExpression::ToString() const {
  std::string out;
  for (const PathStep& s : steps) {
    out += "//";
    if (s.approximate) out += "~";
    out += s.tag;
  }
  return out;
}

namespace {

using engine::ReachabilityBackend;

/// One candidate element with its tag-similarity weight (1.0 unless the
/// step is approximate and the element matched through a synonym).
struct Candidate {
  NodeId element;
  double tag_score;
};

/// Candidate elements for one step: tag lookup, synonym expansion for
/// approximate steps, or every live element for the wildcard.
std::vector<Candidate> StepCandidates(const PathStep& step,
                                      const collection::Collection& c,
                                      const TagIndex& tags,
                                      const PathQueryOptions& options) {
  std::vector<Candidate> out;
  if (step.tag == "*") {
    for (NodeId e = 0; e < c.NumElements(); ++e) {
      collection::DocId d = c.DocOf(e);
      if (d != collection::kInvalidDoc && c.IsLive(d)) {
        out.push_back({e, 1.0});
      }
    }
    return out;
  }
  if (step.approximate && options.similarity != nullptr) {
    for (const auto& [tag, score] :
         options.similarity->Related(step.tag, options.min_tag_similarity)) {
      for (NodeId e : tags.Lookup(tag)) out.push_back({e, score});
    }
    std::sort(out.begin(), out.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.element < b.element;
              });
    return out;
  }
  for (NodeId e : tags.Lookup(step.tag)) out.push_back({e, 1.0});
  return out;
}

/// The forward semi-join: drops the candidates of `*probes` that no
/// element of `anchors` strictly reaches — through an anchor other than
/// the probe itself. With `lists` (labelled only) it also files every
/// survivor under the centers of Lin(t) ∪ {t} it was tested with. Fails
/// only with the first label-fetch error.
Status Reduce(const std::vector<Candidate>& anchors,
              std::vector<Candidate>* probes,
              const ReachabilityBackend& backend,
              const SemiJoinContext& context, SemiJoinScratch& scratch,
              CenterLists* lists) {
  assert(lists == nullptr || context.labels != nullptr);
  Status error = Status::OK();
  scratch.Begin();
  for (const Candidate& anchor : anchors) {
    const NodeId s = anchor.element;
    scratch.Add(s, s);
    if (context.labels == nullptr) {
      // Label-less: the anchor's descendants stand in for its centers.
      for (NodeId d : backend.Descendants(s)) scratch.Add(d, s);
    } else {
      engine::PinnedJoin label = context.labels->Fetch(true, s, &error);
      for (size_t i = 0; i < label.view.n; ++i) {
        scratch.Add(label.view.center(i), s);
      }
    }
  }
  if (lists != nullptr) lists->entries.clear();
  size_t kept = 0;
  for (size_t p = 0; p < probes->size(); ++p) {
    const NodeId t = (*probes)[p].element;
    bool hit = scratch.HitsOther(t, t);
    if (context.labels != nullptr) {
      // Fetched even after a self hit, so a corrupt label never hides.
      engine::PinnedJoin label = context.labels->Fetch(false, t, &error);
      const twohop::JoinView& lin = label.view;
      for (size_t i = 0; i < lin.n && !hit; ++i) {
        hit = scratch.HitsOther(lin.center(i), t);
      }
      if (hit && lists != nullptr) {
        const uint32_t candidate = static_cast<uint32_t>(kept);
        scratch.AddToList(*lists, t, candidate, 0);
        for (size_t i = 0; i < lin.n; ++i) {
          scratch.AddToList(*lists, lin.center(i), candidate, lin.dist_at(i));
        }
      }
    }
    if (hit) (*probes)[kept++] = (*probes)[p];
  }
  probes->resize(kept);
  return error;
}

/// Depth-first enumeration of bindings, in the order of the step
/// candidates. With labels a binding's successors come from the next
/// step's center lists; without, from a pair probe per candidate.
class Enumerator {
 public:
  Enumerator(const std::vector<std::vector<Candidate>>& candidates,
             const ReachabilityBackend& backend,
             const PathQueryOptions& options, const LabelSource* labels,
             SemiJoinScratch* scratch, std::vector<PathMatch>* out)
      : candidates_(candidates),
        backend_(backend),
        options_(options),
        labels_(labels),
        scratch_(scratch),
        out_(out),
        filter_distance_(options.max_step_distance != UINT32_MAX &&
                         backend.with_distance()) {}

  /// Binds step 0 to each of its candidates in turn.
  Status Run() {
    for (uint32_t c = 0; c < candidates_[0].size(); ++c) {
      if (Full()) break;
      HOPI_RETURN_NOT_OK(Bind(0, c, 0, 1.0));
    }
    return Status::OK();
  }

 private:
  bool Full() const { return out_->size() >= options_.max_matches; }

  /// Binds candidate `c` of `step` at distance `d` from the previous
  /// binding and enumerates what follows it. A subtree that yields no
  /// match is marked dead: it does not depend on the previous binding.
  Status Bind(size_t step, uint32_t c, uint32_t d, double tag_score) {
    const Candidate& cand = candidates_[step][c];
    bindings_.push_back(cand.element);
    step_dists_.push_back(d);
    const size_t before = out_->size();
    Status status = Expand(step + 1, tag_score * cand.tag_score);
    step_dists_.pop_back();
    bindings_.pop_back();
    if (status.ok() && out_->size() == before) {
      scratch_->lists(step).dead[c] = 1;
    }
    return status;
  }

  /// Enumerates step `step`'s bindings after bindings_.back().
  Status Expand(size_t step, double tag_score) {
    if (step == candidates_.size()) {
      Emit(tag_score);
      return Status::OK();
    }
    return labels_ != nullptr ? ExpandByLabels(step, tag_score)
                              : ExpandByProbes(step, tag_score);
  }

  /// Walks Lout(prev) ∪ {prev} through the step's center lists: every
  /// live survivor prev reaches, each once, with its least distance.
  Status ExpandByLabels(size_t step, double tag_score) {
    const NodeId prev = bindings_.back();
    CenterLists& lists = scratch_->lists(step);
    ++stamp_;
    std::vector<uint32_t>& order = lists.order;  // deeper steps use theirs
    order.clear();
    auto gather = [&](NodeId center, uint32_t dout) {
      for (uint32_t e = scratch_->ListHead(lists, center);
           e != CenterLists::kEnd;) {
        const CenterLists::Entry& entry = lists.entries[e];
        e = entry.next;
        if (lists.dead[entry.candidate]) continue;
        const uint32_t d = dout + entry.dist;
        if (lists.seen[entry.candidate] != stamp_) {
          lists.seen[entry.candidate] = stamp_;
          lists.dist[entry.candidate] = d;
          order.push_back(entry.candidate);
        } else {
          lists.dist[entry.candidate] =
              std::min(lists.dist[entry.candidate], d);
        }
      }
    };
    gather(prev, 0);
    Status error = Status::OK();
    {
      engine::PinnedJoin lout = labels_->Fetch(true, prev, &error);
      for (size_t i = 0; i < lout.view.n; ++i) {
        gather(lout.view.center(i), lout.view.dist_at(i));
      }
    }
    HOPI_RETURN_NOT_OK(error);
    std::sort(order.begin(), order.end());
    for (uint32_t c : order) {
      if (candidates_[step][c].element == prev) continue;  // strict
      const uint32_t d = backend_.with_distance() ? lists.dist[c] : 0;
      if (filter_distance_ && d > options_.max_step_distance) continue;
      HOPI_RETURN_NOT_OK(Bind(step, c, d, tag_score));
      if (Full()) break;
    }
    return Status::OK();
  }

  /// Label-less backends (closure, delta overlay, sharded) have no
  /// center lists to expand through, and building a Descendants set per
  /// candidate costs more than the pair probes of an enumeration that
  /// stops at max_matches, so they test each candidate pair.
  Status ExpandByProbes(size_t step, double tag_score) {
    const NodeId prev = bindings_.back();
    const std::vector<uint8_t>& dead = scratch_->lists(step).dead;
    for (uint32_t c = 0; c < candidates_[step].size(); ++c) {
      const NodeId element = candidates_[step][c].element;
      if (dead[c] || element == prev ||
          !backend_.IsReachable(prev, element)) {
        continue;
      }
      uint32_t d = 0;
      if (filter_distance_) {
        auto dist = backend_.Distance(prev, element);
        if (!dist || *dist > options_.max_step_distance) continue;
        d = *dist;
      }
      HOPI_RETURN_NOT_OK(Bind(step, c, d, tag_score));
      if (Full()) break;
    }
    return Status::OK();
  }

  void Emit(double tag_score) {
    // step_dists_ hold each pair's distance whenever it was known at
    // bind time; only unfiltered probes leave it to be asked here.
    const bool known = labels_ != nullptr || filter_distance_;
    PathMatch match;
    match.bindings = bindings_;
    match.score = tag_score;
    for (size_t i = 1; i < bindings_.size(); ++i) {
      uint32_t d = 0;
      if (known) {
        d = step_dists_[i];
      } else if (backend_.with_distance()) {
        d = backend_.Distance(bindings_[i - 1], bindings_[i]).value_or(0);
      }
      match.total_distance += d;
      match.score *= 1.0 / (1.0 + d);
    }
    out_->push_back(std::move(match));
  }

  const std::vector<std::vector<Candidate>>& candidates_;
  const ReachabilityBackend& backend_;
  const PathQueryOptions& options_;
  const LabelSource* labels_;
  SemiJoinScratch* scratch_;
  std::vector<PathMatch>* out_;
  const bool filter_distance_;
  std::vector<NodeId> bindings_;
  std::vector<uint32_t> step_dists_;
  // One per expansion, and each expansion ends in a match or a dead
  // mark, so a query cannot wrap it.
  uint32_t stamp_ = 0;
};

}  // namespace

Result<std::vector<PathMatch>> EvaluatePath(
    const PathExpression& expr, const engine::ReachabilityBackend& backend,
    const collection::Collection& collection, const TagIndex& tags,
    const PathQueryOptions& options, const SemiJoinContext& context) {
  if (expr.steps.empty()) {
    return Status::InvalidArgument("empty path expression");
  }
  std::vector<std::vector<Candidate>> candidates;
  candidates.reserve(expr.steps.size());
  for (const PathStep& step : expr.steps) {
    candidates.push_back(StepCandidates(step, collection, tags, options));
    if (candidates.back().empty()) return std::vector<PathMatch>{};
  }
  SemiJoinScratch local;
  SemiJoinScratch& scratch = context.scratch ? *context.scratch : local;
  scratch.BeginLists(candidates.size());
  // With labels the forward pass drops what no binding of the step
  // before reaches and files the rest in center lists for the DFS.
  if (context.labels != nullptr) {
    for (size_t s = 1; s < candidates.size(); ++s) {
      HOPI_RETURN_NOT_OK(Reduce(candidates[s - 1], &candidates[s], backend,
                                context, scratch, &scratch.lists(s)));
      if (candidates[s].empty()) return std::vector<PathMatch>{};
    }
  }
  for (size_t s = 0; s < candidates.size(); ++s) {
    CenterLists& lists = scratch.lists(s);
    lists.dead.assign(candidates[s].size(), 0);
    lists.seen.assign(candidates[s].size(), 0);
    lists.dist.resize(candidates[s].size());
  }
  std::vector<PathMatch> matches;
  if (options.max_matches > 0) {
    Enumerator enumerator(candidates, backend, options, context.labels,
                          &scratch, &matches);
    HOPI_RETURN_NOT_OK(enumerator.Run());
  }
  std::stable_sort(matches.begin(), matches.end(),
                   [](const PathMatch& a, const PathMatch& b) {
                     return a.score > b.score;
                   });
  return matches;
}

Result<size_t> CountPathResults(const PathExpression& expr,
                                const engine::ReachabilityBackend& backend,
                                const collection::Collection& collection,
                                const TagIndex& tags,
                                const SemiJoinContext& context) {
  if (expr.steps.empty()) {
    return Status::InvalidArgument("empty path expression");
  }
  PathQueryOptions options;  // exact semantics for counting
  SemiJoinScratch local;
  SemiJoinScratch& scratch = context.scratch ? *context.scratch : local;
  // The forward chain: the last step's survivors are the distinct
  // elements some match ends in.
  std::vector<Candidate> frontier =
      StepCandidates(expr.steps.front(), collection, tags, options);
  for (size_t s = 1; s < expr.steps.size() && !frontier.empty(); ++s) {
    std::vector<Candidate> next =
        StepCandidates(expr.steps[s], collection, tags, options);
    HOPI_RETURN_NOT_OK(
        Reduce(frontier, &next, backend, context, scratch, nullptr));
    frontier = std::move(next);
  }
  return frontier.size();
}

}  // namespace hopi::query
