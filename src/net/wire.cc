#include "net/wire.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace hopi::net {
namespace {

/// Extracts a non-negative integer field (JSON numbers are double;
/// the wire's integers must be integral and fit `max`).
Status GetUint(const JsonValue& v, std::string_view field, uint64_t max,
               uint64_t* out) {
  if (!v.is_number()) {
    return Status::InvalidArgument(std::string(field) + " must be a number");
  }
  return JsonReader::ToUint(v.AsNumber(), field, max, out);
}

Status GetBool(const JsonValue& v, std::string_view field, bool* out) {
  if (!v.is_bool()) {
    return Status::InvalidArgument(std::string(field) + " must be a boolean");
  }
  *out = v.AsBool();
  return Status::OK();
}

Status PairShapeError() {
  return Status::InvalidArgument(
      "every \"pairs\" entry must be a two-element array [u, v]");
}

/// One pair id at depth 3: an array item of its [u, v] entry.
Status ReadPairId(JsonReader* in, std::string_view field, uint64_t max,
                  NodeId* out) {
  HOPI_RETURN_NOT_OK(in->CountElement());
  HOPI_RETURN_NOT_OK(in->CheckDepth(3));
  in->SkipWhitespace();
  uint64_t id = 0;
  HOPI_RETURN_NOT_OK(in->ReadUint(field, max, &id));
  *out = static_cast<NodeId>(id);
  in->SkipWhitespace();
  return Status::OK();
}

/// The value of "pairs" (depth 1), cursor on its first byte: an array
/// of [u, v] entries written straight into *pairs.
Status ReadPairs(JsonReader* in, size_t body_bytes, uint64_t num_elements,
                 size_t max_pairs, std::vector<engine::NodePair>* pairs) {
  if (!in->Consume('[')) {
    return Status::InvalidArgument("\"pairs\" must be an array of [u, v]");
  }
  in->SkipWhitespace();
  if (in->Consume(']')) return Status::OK();
  if (num_elements == 0) {
    return Status::InvalidArgument("the serving collection has no elements");
  }
  // Every entry spends at least six bytes ("[0,0],"), which bounds the
  // reservation by the body as well as by the limit.
  pairs->reserve(std::min(max_pairs, body_bytes / 6 + 1));
  do {
    if (pairs->size() == max_pairs) {
      return Status::InvalidArgument(
          "\"pairs\" has more than " + std::to_string(max_pairs) +
          " entries; the wire limit is " + std::to_string(max_pairs));
    }
    HOPI_RETURN_NOT_OK(in->CountElement());
    HOPI_RETURN_NOT_OK(in->CheckDepth(2));
    in->SkipWhitespace();
    if (!in->Consume('[')) return PairShapeError();
    engine::NodePair pair;
    HOPI_RETURN_NOT_OK(
        ReadPairId(in, "pair source", num_elements - 1, &pair.first));
    if (!in->Consume(',')) return PairShapeError();
    HOPI_RETURN_NOT_OK(
        ReadPairId(in, "pair target", num_elements - 1, &pair.second));
    if (!in->Consume(']')) return PairShapeError();
    pairs->push_back(pair);
    in->SkipWhitespace();
  } while (in->Consume(','));
  if (!in->Consume(']')) return in->Fail("expected ',' or ']' in array");
  return Status::OK();
}

}  // namespace

// The reader enforces ParseJson's grammar and limits, and the calls
// here mirror its depth and element accounting, so exactly the bodies
// the tree-then-walk decode accepted are accepted, with the same values
// (tests/wire_fuzz_test.cc keeps that decode as the reference).
Result<engine::BatchRequest> JsonWire::ParseBatchRequest(
    std::string_view body, uint64_t num_elements) const {
  JsonReader in(body, limits_.json);
  engine::BatchRequest request;
  bool seen_pairs = false;
  bool seen_want_distances = false;
  in.SkipWhitespace();
  if (!in.Consume('{')) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  in.SkipWhitespace();
  if (!in.Consume('}')) {
    std::string key;
    do {
      in.SkipWhitespace();
      if (in.AtEnd() || in.Peek() != '"') {
        return in.Fail("expected object key string");
      }
      HOPI_RETURN_NOT_OK(in.ReadString(&key));
      in.SkipWhitespace();
      if (!in.Consume(':')) return in.Fail("expected ':' after key");
      HOPI_RETURN_NOT_OK(in.CountElement());
      HOPI_RETURN_NOT_OK(in.CheckDepth(1));
      in.SkipWhitespace();
      if (key == "pairs") {
        if (seen_pairs) return in.Fail("duplicate object key 'pairs'");
        seen_pairs = true;
        HOPI_RETURN_NOT_OK(ReadPairs(&in, body.size(), num_elements,
                                     limits_.max_pairs, &request.pairs));
      } else if (key == "want_distances") {
        if (seen_want_distances) {
          return in.Fail("duplicate object key 'want_distances'");
        }
        seen_want_distances = true;
        HOPI_RETURN_NOT_OK(in.ReadBool(key, &request.want_distances));
      } else {
        return Status::InvalidArgument("unknown field \"" + key + "\"");
      }
      in.SkipWhitespace();
    } while (in.Consume(','));
    if (!in.Consume('}')) return in.Fail("expected ',' or '}' in object");
  }
  in.SkipWhitespace();
  if (!in.AtEnd()) return in.Fail("trailing bytes after the JSON document");
  if (!seen_pairs) {
    return Status::InvalidArgument("\"pairs\" must be an array of [u, v]");
  }
  return request;
}

Result<engine::PathQueryRequest> JsonWire::ParsePathRequest(
    std::string_view body) const {
  HOPI_ASSIGN_OR_RETURN(JsonValue root, ParseJson(body, limits_.json));
  if (!root.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  const JsonValue* expression = root.Find("expression");
  if (expression == nullptr || !expression->is_string()) {
    return Status::InvalidArgument("\"expression\" must be a string");
  }
  if (expression->AsString().size() > limits_.max_expression_bytes) {
    return Status::InvalidArgument(
        "\"expression\" longer than " +
        std::to_string(limits_.max_expression_bytes) + " bytes");
  }
  engine::PathQueryRequest request;
  request.expression = expression->AsString();
  for (const auto& [key, value] : root.AsObject()) {
    if (key == "expression") continue;
    if (key == "max_matches") {
      uint64_t n = 0;
      HOPI_RETURN_NOT_OK(GetUint(value, key, limits_.max_matches, &n));
      request.max_matches = static_cast<size_t>(n);
    } else if (key == "max_step_distance") {
      uint64_t n = 0;
      HOPI_RETURN_NOT_OK(GetUint(value, key, UINT32_MAX, &n));
      request.max_step_distance = static_cast<uint32_t>(n);
    } else if (key == "min_tag_similarity") {
      if (!value.is_number() || value.AsNumber() < 0.0 ||
          value.AsNumber() > 1.0) {
        return Status::InvalidArgument(
            "\"min_tag_similarity\" must be a number in [0, 1]");
      }
      request.min_tag_similarity = value.AsNumber();
    } else if (key == "count_only") {
      HOPI_RETURN_NOT_OK(GetBool(value, key, &request.count_only));
    } else {
      return Status::InvalidArgument("unknown field \"" + key + "\"");
    }
  }
  return request;
}

Result<engine::Mutation> JsonWire::ParseMutationRequest(
    std::string_view body, uint64_t num_elements,
    uint64_t num_documents) const {
  HOPI_ASSIGN_OR_RETURN(JsonValue root, ParseJson(body, limits_.json));
  if (!root.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  const JsonValue* op = root.Find("op");
  if (op == nullptr || !op->is_string()) {
    return Status::InvalidArgument("\"op\" must be a string");
  }
  const std::string& kind = op->AsString();

  // Per-op field whitelists: anything else is an unknown field, the
  // same strictness as the batch/path parsers.
  auto check_fields = [&](std::initializer_list<std::string_view> allowed)
      -> Status {
    for (const auto& [key, value] : root.AsObject()) {
      (void)value;
      if (key == "op") continue;
      bool known = false;
      for (std::string_view a : allowed) known = known || key == a;
      if (!known) {
        return Status::InvalidArgument("unknown field \"" + key + "\"");
      }
    }
    return Status::OK();
  };
  auto require_uint = [&](const char* field, uint64_t max,
                          uint64_t* out) -> Status {
    const JsonValue* v = root.Find(field);
    if (v == nullptr) {
      return Status::InvalidArgument(std::string("\"") + field +
                                     "\" is required");
    }
    return GetUint(*v, field, max, out);
  };

  if (kind == "insert_link" || kind == "delete_link") {
    HOPI_RETURN_NOT_OK(check_fields({"source", "target"}));
    if (num_elements == 0) {
      return Status::InvalidArgument("the serving collection has no elements");
    }
    uint64_t u = 0;
    uint64_t v = 0;
    HOPI_RETURN_NOT_OK(require_uint("source", num_elements - 1, &u));
    HOPI_RETURN_NOT_OK(require_uint("target", num_elements - 1, &v));
    return kind == "insert_link"
               ? engine::Mutation::InsertLink(static_cast<NodeId>(u),
                                              static_cast<NodeId>(v))
               : engine::Mutation::DeleteLink(static_cast<NodeId>(u),
                                              static_cast<NodeId>(v));
  }
  if (kind == "insert_document") {
    HOPI_RETURN_NOT_OK(check_fields({"name", "elements"}));
    const JsonValue* name = root.Find("name");
    if (name == nullptr || !name->is_string()) {
      return Status::InvalidArgument("\"name\" must be a string");
    }
    if (name->AsString().size() > limits_.max_name_bytes) {
      return Status::InvalidArgument(
          "\"name\" longer than " + std::to_string(limits_.max_name_bytes) +
          " bytes");
    }
    const JsonValue* elements = root.Find("elements");
    if (elements == nullptr || !elements->is_array()) {
      return Status::InvalidArgument("\"elements\" must be an array");
    }
    if (elements->AsArray().empty()) {
      return Status::InvalidArgument(
          "\"elements\" needs at least one element (the root)");
    }
    if (elements->AsArray().size() > limits_.max_document_elements) {
      return Status::InvalidArgument(
          "\"elements\" has " + std::to_string(elements->AsArray().size()) +
          " entries; the wire limit is " +
          std::to_string(limits_.max_document_elements));
    }
    std::vector<engine::NewElementSpec> specs;
    specs.reserve(elements->AsArray().size());
    for (size_t i = 0; i < elements->AsArray().size(); ++i) {
      const JsonValue& e = elements->AsArray()[i];
      if (!e.is_object()) {
        return Status::InvalidArgument(
            "every \"elements\" entry must be an object");
      }
      const JsonValue* tag = e.Find("tag");
      if (tag == nullptr || !tag->is_string()) {
        return Status::InvalidArgument("element \"tag\" must be a string");
      }
      if (tag->AsString().size() > limits_.max_name_bytes) {
        return Status::InvalidArgument(
            "element \"tag\" longer than " +
            std::to_string(limits_.max_name_bytes) + " bytes");
      }
      const JsonValue* parent = e.Find("parent");
      if (parent == nullptr) {
        return Status::InvalidArgument(
            "element \"parent\" is required (null for the root)");
      }
      engine::NewElementSpec spec;
      spec.tag = tag->AsString();
      if (parent->is_null()) {
        if (i != 0) {
          return Status::InvalidArgument(
              "only the first element (the root) may have a null parent");
        }
      } else {
        uint64_t p = 0;
        if (i == 0) {
          return Status::InvalidArgument(
              "the first element is the root and must have parent null");
        }
        HOPI_RETURN_NOT_OK(GetUint(*parent, "element parent", i - 1, &p));
        spec.parent = static_cast<uint32_t>(p);
      }
      for (const auto& [key, value] : e.AsObject()) {
        (void)value;
        if (key != "tag" && key != "parent") {
          return Status::InvalidArgument("unknown element field \"" + key +
                                         "\"");
        }
      }
      specs.push_back(std::move(spec));
    }
    return engine::Mutation::InsertDocument(name->AsString(),
                                            std::move(specs));
  }
  if (kind == "delete_document") {
    HOPI_RETURN_NOT_OK(check_fields({"doc"}));
    if (num_documents == 0) {
      return Status::InvalidArgument("the serving collection has no documents");
    }
    uint64_t d = 0;
    HOPI_RETURN_NOT_OK(require_uint("doc", num_documents - 1, &d));
    return engine::Mutation::DeleteDocument(
        static_cast<collection::DocId>(d));
  }
  return Status::InvalidArgument(
      "\"op\" must be one of insert_link, delete_link, insert_document, "
      "delete_document");
}

namespace {

/// `"key":v` (with the leading comma unless `first`).
void AppendUintField(std::string* out, std::string_view key, uint64_t v,
                     bool first = false) {
  if (!first) out->push_back(',');
  out->push_back('"');
  out->append(key);
  out->append("\":");
  AppendJsonUint(out, v);
}

void AppendBools(std::string* out, const std::vector<bool>& values) {
  out->push_back('[');
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out->push_back(',');
    out->append(values[i] ? "true" : "false");
  }
  out->push_back(']');
}

/// The "reachable" and (when asked for) "distances" arrays.
void AppendAnswers(std::string* out, const engine::BatchResponse& batch) {
  out->append("\"reachable\":");
  AppendBools(out, batch.reachable);
  if (batch.distances.empty()) return;
  out->append(",\"distances\":[");
  for (size_t i = 0; i < batch.distances.size(); ++i) {
    if (i > 0) out->push_back(',');
    if (batch.distances[i].has_value()) {
      AppendJsonUint(out, *batch.distances[i]);
    } else {
      out->append("null");
    }
  }
  out->push_back(']');
}

void AppendStats(std::string* out, const engine::BatchStats& stats) {
  out->append(",\"stats\":{");
  AppendUintField(out, "probes", stats.probes, /*first=*/true);
  AppendUintField(out, "unique_probes", stats.unique_probes);
  AppendUintField(out, "cache_hits", stats.cache_hits);
  AppendUintField(out, "cache_misses", stats.cache_misses);
  AppendUintField(out, "labels_borrowed", stats.labels_borrowed);
  out->push_back('}');
}

void AppendPartialError(std::string* out, const Status& status) {
  if (status.ok()) return;
  out->append(",\"partial_error\":");
  out->append(JsonWire::SerializeError(status));
}

/// Bytes a batch response takes at most before its error envelope:
/// "false," per answer, a ten-digit distance per answer, the rest.
size_t BatchResponseBytes(const engine::BatchResponse& batch) {
  return 6 * batch.reachable.size() + 11 * batch.distances.size() + 384;
}

}  // namespace

std::string JsonWire::SerializeMutationReceipt(
    const engine::MutationReceipt& receipt) {
  std::string out = "{\"applied\":true";
  AppendUintField(&out, "generation", receipt.generation);
  AppendUintField(&out, "snapshot_version", receipt.snapshot_version);
  if (receipt.doc != collection::kInvalidDoc) {
    AppendUintField(&out, "doc", receipt.doc);
    AppendUintField(&out, "first_element", receipt.first_element);
    AppendUintField(&out, "num_elements", receipt.num_elements);
  }
  out.push_back('}');
  return out;
}

std::string JsonWire::SerializeBatchResponse(
    const engine::PoolBatchResponse& response) {
  const engine::BatchResponse& batch = response.batch;
  std::string out;
  out.reserve(BatchResponseBytes(batch));
  out.push_back('{');
  AppendAnswers(&out, batch);
  AppendUintField(&out, "snapshot_version", response.snapshot_version);
  AppendUintField(&out, "delta_generation", response.delta_generation);
  AppendUintField(&out, "worker", response.worker);
  AppendStats(&out, batch.stats);
  AppendPartialError(&out, batch.error);
  out.push_back('}');
  return out;
}

std::string JsonWire::SerializeShardedBatchResponse(
    const engine::ShardedBatchResponse& response) {
  const engine::BatchResponse& batch = response.batch;
  std::string out;
  out.reserve(BatchResponseBytes(batch) + 6 * response.resolved.size() +
              21 * response.shard_versions.size());
  out.push_back('{');
  AppendAnswers(&out, batch);
  out.append(",\"resolved\":");
  AppendBools(&out, response.resolved);
  out.append(",\"shard_versions\":[");
  for (size_t i = 0; i < response.shard_versions.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendJsonUint(&out, response.shard_versions[i]);
  }
  out.push_back(']');
  AppendStats(&out, batch.stats);
  AppendPartialError(&out, response.status);
  out.push_back('}');
  return out;
}

std::string JsonWire::SerializePathResponse(
    const engine::PoolPathResponse& response) {
  const engine::PathQueryResponse& path = response.result.value();
  // A typical match: 43 bytes of keys and punctuation, a short distance
  // and score, six bytes per binding. Longer ones cost one regrowth;
  // reserving the worst case (~70 + 11 per binding) would hold half
  // again the memory for every large response.
  size_t bytes = 128;
  for (const query::PathMatch& match : path.matches) {
    bytes += 56 + 6 * match.bindings.size();
  }
  std::string out;
  out.reserve(bytes);
  out.push_back('{');
  AppendUintField(&out, "count", path.count, /*first=*/true);
  out.append(",\"matches\":[");
  for (size_t i = 0; i < path.matches.size(); ++i) {
    const query::PathMatch& match = path.matches[i];
    if (i > 0) out.push_back(',');
    out.append("{\"bindings\":[");
    for (size_t j = 0; j < match.bindings.size(); ++j) {
      if (j > 0) out.push_back(',');
      AppendJsonUint(&out, match.bindings[j]);
    }
    out.push_back(']');
    AppendUintField(&out, "total_distance", match.total_distance);
    out.append(",\"score\":");
    AppendJsonNumber(&out, match.score);
    out.push_back('}');
  }
  out.push_back(']');
  AppendUintField(&out, "snapshot_version", response.snapshot_version);
  AppendUintField(&out, "delta_generation", response.delta_generation);
  AppendUintField(&out, "worker", response.worker);
  out.push_back('}');
  return out;
}

std::string JsonWire::SerializeError(const Status& status) {
  std::string out = "{\"error\":{\"code\":";
  AppendJsonString(&out, StatusCodeName(status.code()));
  out += ",\"message\":";
  AppendJsonString(&out, status.message());
  out += "}}";
  return out;
}

int JsonWire::HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kResourceExhausted:
      return 429;
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kUnavailable:
      return 503;
    case StatusCode::kFailedPrecondition:
      return 503;
    case StatusCode::kUnsupported:
      return 501;
    case StatusCode::kOutOfBudget:
      return 503;
    case StatusCode::kCorruption:
    case StatusCode::kIOError:
    case StatusCode::kInternal:
      return 500;
  }
  return 500;
}

}  // namespace hopi::net
