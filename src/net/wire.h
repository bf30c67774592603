// JsonWire: the typed boundary between HTTP bodies and engine
// requests/responses.
//
// Parsing is strict and total: every request body either becomes a
// fully validated engine::BatchRequest / engine::PathQueryRequest or a
// typed InvalidArgument naming the offending field — node ids are
// range-checked against the serving collection, sizes against the wire
// limits, types against the schema. Serialization is deterministic
// (fixed field order) so responses are diffable across runs; the JSON
// schemas are documented byte-for-byte in docs/WIRE_FORMAT.md.
//
// HttpStatusFor is the single place the util::Status taxonomy maps to
// HTTP status codes — notably ResourceExhausted -> 429, the overload
// shedding contract the load bench and the admission tests assert on.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "engine/engine.h"
#include "engine/engine_pool.h"
#include "engine/sharded_engine.h"
#include "net/json.h"
#include "util/result.h"

namespace hopi::net {

struct WireLimits {
  /// Probe pairs per batch request.
  size_t max_pairs = 1u << 16;
  /// Path expression length in bytes.
  size_t max_expression_bytes = 4096;
  /// Materialized matches a path request may ask for.
  size_t max_matches = 1u << 16;
  /// Elements one insert_document mutation may create.
  size_t max_document_elements = 4096;
  /// Bytes of a mutation's document name or element tag.
  size_t max_name_bytes = 1024;
  JsonParseLimits json;
};

class JsonWire {
 public:
  explicit JsonWire(WireLimits limits = {}) : limits_(limits) {}

  const WireLimits& limits() const { return limits_; }

  /// Body schema: {"pairs": [[u, v], ...], "want_distances": bool?}.
  /// Node ids must be integers in [0, num_elements). Decoded in one
  /// pass over the body's tokens, without a JSON tree; the first
  /// problem in the body is the one reported.
  Result<engine::BatchRequest> ParseBatchRequest(std::string_view body,
                                                 uint64_t num_elements) const;

  /// Body schema: {"expression": "//a//~b", "max_matches": n?,
  /// "max_step_distance": n?, "min_tag_similarity": x?,
  /// "count_only": bool?}.
  Result<engine::PathQueryRequest> ParsePathRequest(
      std::string_view body) const;

  /// Body schema (one op per request, discriminated by "op"):
  ///   {"op": "insert_link", "source": u, "target": v}
  ///   {"op": "delete_link", "source": u, "target": v}
  ///   {"op": "insert_document", "name": "...",
  ///    "elements": [{"tag": "...", "parent": null | index}, ...]}
  ///   {"op": "delete_document", "doc": d}
  /// Ids are range-checked against the SERVING counts (base ∪ delta);
  /// element parents are indices into the op's own "elements" array
  /// (the first element is the root and must have parent null). The
  /// deeper semantic checks (edge exists, document live, ...) happen in
  /// EnginePool::ApplyMutation — this layer is shape and range only.
  Result<engine::Mutation> ParseMutationRequest(std::string_view body,
                                                uint64_t num_elements,
                                                uint64_t num_documents) const;

  // ---- serializers (deterministic field order) ----

  static std::string SerializeBatchResponse(
      const engine::PoolBatchResponse& response);

  /// The sharded-serving twin: same "reachable"/"distances"/"stats"
  /// shape plus "resolved" (per-pair authority mask), "shard_versions"
  /// (the per-shard snapshot versions that answered), and
  /// "partial_error" when the merge degraded (deadline, failed shard).
  static std::string SerializeShardedBatchResponse(
      const engine::ShardedBatchResponse& response);

  /// Precondition: response.result.ok() (errors go through
  /// SerializeError at the service layer).
  static std::string SerializePathResponse(
      const engine::PoolPathResponse& response);

  /// {"applied":true,"generation":g,"snapshot_version":v} plus
  /// "doc"/"first_element"/"num_elements" for insert_document receipts.
  static std::string SerializeMutationReceipt(
      const engine::MutationReceipt& receipt);

  /// {"error": {"code": "ResourceExhausted", "message": "..."}}.
  static std::string SerializeError(const Status& status);

  /// The one Status -> HTTP mapping: InvalidArgument 400, NotFound 404,
  /// ResourceExhausted 429 (overload shed), FailedPrecondition 503
  /// (shutting down), Unsupported 501, everything else 500.
  static int HttpStatusFor(const Status& status);

 private:
  WireLimits limits_;
};

}  // namespace hopi::net
