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

enum class SemiJoinDirection {
  kForward,   ///< keep probes that some anchor reaches
  kBackward,  ///< keep probes that reach some anchor
};

/// The reducer's set-at-a-time primitive. Sets (*keep)[i] to whether
/// probes[i] is strictly reachable from some anchor (forward), or
/// strictly reaches some anchor (backward) — through an anchor other
/// than probes[i] itself. Without labels only the forward direction
/// runs (count_only). Fails only with the first label-fetch error.
Status SemiJoin(SemiJoinDirection direction, std::span<const NodeId> anchors,
                std::span<const NodeId> probes,
                const ReachabilityBackend& backend,
                const SemiJoinContext& context, std::vector<uint8_t>* keep) {
  const bool forward = direction == SemiJoinDirection::kForward;
  assert(forward || context.labels != nullptr);
  SemiJoinScratch local;
  SemiJoinScratch& scratch = context.scratch ? *context.scratch : local;
  Status error = Status::OK();
  auto for_each_center = [&](bool out, NodeId node, auto&& visit) {
    engine::PinnedJoin label = context.labels->Fetch(out, node, &error);
    for (size_t i = 0; i < label.view.n; ++i) {
      if (visit(label.view.center(i))) return;
    }
  };
  scratch.Begin();
  for (NodeId s : anchors) {
    scratch.Add(s, s);
    if (context.labels == nullptr) {
      // Label-less: the anchor's descendants stand in for its centers.
      for (NodeId d : backend.Descendants(s)) scratch.Add(d, s);
    } else {
      for_each_center(forward, s, [&](NodeId c) {
        scratch.Add(c, s);
        return false;
      });
    }
  }
  keep->assign(probes.size(), 0);
  for (size_t i = 0; i < probes.size(); ++i) {
    NodeId t = probes[i];
    bool hit = scratch.HitsOther(t, t);
    if (context.labels != nullptr) {
      // Fetched even after a self hit, so a corrupt label never hides.
      for_each_center(!forward, t, [&](NodeId c) {
        hit = hit || scratch.HitsOther(c, t);
        return hit;
      });
    }
    (*keep)[i] = hit;
  }
  return error;
}

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

std::vector<NodeId> Elements(const std::vector<Candidate>& candidates) {
  std::vector<NodeId> out;
  out.reserve(candidates.size());
  for (const Candidate& c : candidates) out.push_back(c.element);
  return out;
}

/// One semi-join pass: drops the candidates of `*probes` that no element
/// of `anchors` reaches (forward) or that reach none of them (backward).
Status Reduce(SemiJoinDirection direction,
              const std::vector<Candidate>& anchors,
              std::vector<Candidate>* probes,
              const ReachabilityBackend& backend,
              const SemiJoinContext& context) {
  std::vector<uint8_t> keep;
  HOPI_RETURN_NOT_OK(SemiJoin(direction, Elements(anchors), Elements(*probes),
                              backend, context, &keep));
  size_t kept = 0;
  for (size_t i = 0; i < probes->size(); ++i) {
    if (keep[i]) (*probes)[kept++] = (*probes)[i];
  }
  probes->resize(kept);
  return Status::OK();
}

/// Depth-first enumeration of bindings. `step_dists[i]` is the distance
/// from bindings[i-1] to bindings[i] when the max_step_distance filter
/// already computed it.
void Enumerate(const std::vector<std::vector<Candidate>>& candidates,
               const ReachabilityBackend& backend,
               const PathQueryOptions& options, size_t step,
               std::vector<NodeId>* bindings,
               std::vector<uint32_t>* step_dists, double tag_score,
               std::vector<PathMatch>* out) {
  if (out->size() >= options.max_matches) return;
  const bool filter_distance =
      options.max_step_distance != UINT32_MAX && backend.with_distance();
  if (step == candidates.size()) {
    PathMatch match;
    match.bindings = *bindings;
    match.score = tag_score;
    for (size_t i = 1; i < bindings->size(); ++i) {
      uint32_t d = 0;
      if (filter_distance) {
        d = (*step_dists)[i];
      } else if (backend.with_distance()) {
        auto dist = backend.Distance((*bindings)[i - 1], (*bindings)[i]);
        d = dist ? *dist : 0;
      }
      match.total_distance += d;
      match.score *= 1.0 / (1.0 + d);
    }
    out->push_back(std::move(match));
    return;
  }
  for (const Candidate& cand : candidates[step]) {
    uint32_t d = 0;
    if (step > 0) {
      NodeId prev = bindings->back();
      if (prev == cand.element || !backend.IsReachable(prev, cand.element)) {
        continue;
      }
      if (filter_distance) {
        auto dist = backend.Distance(prev, cand.element);
        if (!dist || *dist > options.max_step_distance) continue;
        d = *dist;
      }
    }
    bindings->push_back(cand.element);
    step_dists->push_back(d);
    Enumerate(candidates, backend, options, step + 1, bindings, step_dists,
              tag_score * cand.tag_score, out);
    step_dists->pop_back();
    bindings->pop_back();
    if (out->size() >= options.max_matches) return;
  }
}

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
  // Full reducer: after the forward and the backward pass every
  // remaining candidate takes part in some match, so the enumeration
  // below never explores a dead end it would have to back out of.
  // Label-less backends skip it: enumerating every candidate's
  // Descendants costs more than the pair probes of an enumeration that
  // stops at max_matches (one BFS per candidate on the delta overlay).
  if (context.labels != nullptr) {
    for (size_t s = 1; s < candidates.size(); ++s) {
      HOPI_RETURN_NOT_OK(Reduce(SemiJoinDirection::kForward,
                                candidates[s - 1], &candidates[s], backend,
                                context));
      if (candidates[s].empty()) return std::vector<PathMatch>{};
    }
    for (size_t s = candidates.size() - 1; s > 0; --s) {
      HOPI_RETURN_NOT_OK(Reduce(SemiJoinDirection::kBackward, candidates[s],
                                &candidates[s - 1], backend, context));
    }
  }
  std::vector<PathMatch> matches;
  std::vector<NodeId> bindings;
  std::vector<uint32_t> step_dists;
  Enumerate(candidates, backend, options, 0, &bindings, &step_dists, 1.0,
            &matches);
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
  // The forward half of the reducer: the last step's survivors are the
  // distinct elements some match ends in.
  std::vector<Candidate> frontier =
      StepCandidates(expr.steps.front(), collection, tags, options);
  for (size_t s = 1; s < expr.steps.size() && !frontier.empty(); ++s) {
    std::vector<Candidate> next =
        StepCandidates(expr.steps[s], collection, tags, options);
    HOPI_RETURN_NOT_OK(
        Reduce(SemiJoinDirection::kForward, frontier, &next, backend, context));
    frontier = std::move(next);
  }
  return frontier.size();
}

}  // namespace hopi::query
