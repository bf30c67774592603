// LIN/LOUT index-organized tables (paper Sec 3.4 / Sec 5.1) — the writer.
//
// The paper stores the cover in two Oracle tables,
//   LIN(ID, INID[, DIST])  and  LOUT(ID, OUTID[, DIST]),
// each as an index-organized table sorted by the *forward* key (ID, INID)
// plus a *backward* index on (INID, ID) — doubling the stored integers.
// WriteLinLoutFile lays a cover out as exactly those four sorted runs in
// one crash-safe file (storage/format.h, docs/FILE_FORMAT.md).
//
// MappedLinLoutStore (storage/mapped_linlout.h) is the one reader. It
// executes the paper's SQL access paths over the file:
//   connection test:  intersect LOUT rows of ID1 with LIN rows of ID2
//                     (SELECT COUNT(*) ... WHERE LOUT.OUTID = LIN.INID),
//   distance lookup:  SELECT MIN(LOUT.DIST + LIN.DIST) ...,
//   descendants:      backward LIN probes for every center in LOUT(ID),
// plus the "simple additional queries" that compensate for nodes not being
// stored in their own labels.
#pragma once

#include <cstdint>
#include <string>

#include "graph/digraph.h"
#include "storage/compress.h"
#include "twohop/cover.h"
#include "util/status.h"

namespace hopi::storage {

/// Writer knobs for WriteLinLoutFile.
struct StoreWriteOptions {
  /// kFormatVersion (3, raw rows — the zero-copy mmap layout) or
  /// kFormatVersionV4 (4, block-compressed rows — smaller files,
  /// decoded lazily by MappedLinLoutStore).
  uint32_t format_version = 4;
  /// Block sizing for v4; ignored when writing v3.
  CompressOptions compress = {};
};

/// One table row: a node and one center from its label.
struct TableRow {
  NodeId id;
  NodeId center;
  uint32_t dist;

  friend bool operator==(const TableRow& a, const TableRow& b) {
    return a.id == b.id && a.center == b.center && a.dist == b.dist;
  }
};

/// Writes `cover` as a LIN/LOUT file of `options.format_version`. The
/// DIST column is stored when `with_distance`, zeroed otherwise. The
/// image is staged in a sibling temp file, fsynced, and atomically
/// renamed into place, so readers see either the old file or the new
/// one — never a torn mix. Errors: InvalidArgument for a version this
/// build does not write, IOError from the filesystem.
Status WriteLinLoutFile(const twohop::TwoHopCover& cover, bool with_distance,
                        const std::string& path,
                        const StoreWriteOptions& options = {});

}  // namespace hopi::storage
