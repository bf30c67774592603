#include "storage/linlout.h"

#include <algorithm>
#include <vector>

#include "storage/format.h"

namespace hopi::storage {

Status WriteLinLoutFile(const twohop::TwoHopCover& cover, bool with_distance,
                        const std::string& path,
                        const StoreWriteOptions& options) {
  if (options.format_version != kFormatVersion &&
      options.format_version != kFormatVersionV4) {
    return Status::InvalidArgument(
        "cannot write LIN/LOUT format version " +
        std::to_string(options.format_version) + "; this build writes " +
        std::to_string(kFormatVersion) + " and " +
        std::to_string(kFormatVersionV4));
  }
  // Forward runs sorted by (id, center); backward runs by (center, id).
  // Labels are sorted by center, so the forward runs come out sorted.
  std::vector<TableRow> lin_fwd, lout_fwd;
  for (NodeId v = 0; v < cover.NumNodes(); ++v) {
    for (const twohop::LabelEntry& e : cover.In(v)) {
      lin_fwd.push_back({v, e.center, with_distance ? e.dist : 0});
    }
    for (const twohop::LabelEntry& e : cover.Out(v)) {
      lout_fwd.push_back({v, e.center, with_distance ? e.dist : 0});
    }
  }
  auto by_center_id = [](const TableRow& a, const TableRow& b) {
    return a.center != b.center ? a.center < b.center : a.id < b.id;
  };
  std::vector<TableRow> lin_bwd = lin_fwd, lout_bwd = lout_fwd;
  std::sort(lin_bwd.begin(), lin_bwd.end(), by_center_id);
  std::sort(lout_bwd.begin(), lout_bwd.end(), by_center_id);
  return AtomicWriteFile(
      path, options.format_version == kFormatVersion
                ? BuildFileImage(lin_fwd, lout_fwd, lin_bwd, lout_bwd,
                                 with_distance)
                : BuildFileImageV4(lin_fwd, lout_fwd, lin_bwd, lout_bwd,
                                   with_distance, options.compress));
}

}  // namespace hopi::storage
