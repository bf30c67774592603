// HopiIndexBackend: the in-memory 2-hop cover as a ReachabilityBackend.
//
// Split out of engine/backends.h so the query module's deprecated
// HopiIndex shims can construct it without pulling the storage and
// baseline headers into their dependency surface.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "engine/backend.h"
#include "hopi/index.h"

namespace hopi::engine {

/// Adapter over the in-memory HopiIndex (2-hop cover labels). Labels
/// are borrowed straight from the cover — no copies, no cache needed.
/// Safe to share across serving threads only while no maintenance
/// operation mutates the index; for live maintenance, serve a
/// BackendSnapshot::Freeze copy instead (see engine/snapshot.h).
class HopiIndexBackend final : public ReachabilityBackend {
 public:
  explicit HopiIndexBackend(const HopiIndex& index) : index_(&index) {}

  std::string_view Name() const override { return "hopi"; }
  bool with_distance() const override { return index_->with_distance(); }

  bool IsReachable(NodeId u, NodeId v) const override {
    return index_->IsReachable(u, v);
  }
  std::optional<uint32_t> Distance(NodeId u, NodeId v) const override {
    return index_->Distance(u, v);
  }
  std::vector<NodeId> Descendants(NodeId u) const override {
    return index_->Descendants(u);
  }
  std::vector<NodeId> Ancestors(NodeId u) const override {
    return index_->Ancestors(u);
  }

  bool HasLabels() const override { return true; }
  // The cover keeps packed SoA mirrors with real summaries — the
  // kernels get those directly.
  std::optional<twohop::JoinView> BorrowOutJoin(NodeId u) const override {
    const twohop::TwoHopCover& cover = index_->cover();
    return u < cover.NumNodes() ? cover.OutJoin(u) : twohop::JoinView{};
  }
  std::optional<twohop::JoinView> BorrowInJoin(NodeId v) const override {
    const twohop::TwoHopCover& cover = index_->cover();
    return v < cover.NumNodes() ? cover.InJoin(v) : twohop::JoinView{};
  }

 private:
  const HopiIndex* index_;
};

}  // namespace hopi::engine
