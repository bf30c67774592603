#include "layers.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_set>

#include "engine/engine.h"
#include "engine/engine_pool.h"
#include "engine/shard_router.h"
#include "engine/sharded_engine.h"
#include "engine/snapshot.h"
#include "hopi/build.h"
#include "net/http.h"
#include "net/wire.h"
#include "query/path_query.h"
#include "twohop/join_kernel.h"

namespace perfbench {
namespace {

using hopi::NodeId;
using hopi::engine::BatchRequest;
using hopi::engine::Mutation;

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  size_t request = 0;
};

/// In-memory span store; written out once, when the run ends.
class Tracer {
 public:
  int Add(std::string name, double start_us, double end_us, int parent,
          size_t request) {
    spans_.push_back({std::move(name), start_us, end_us, parent, request});
    children_.emplace_back();
    const int id = static_cast<int>(spans_.size()) - 1;
    if (parent >= 0) children_[parent].push_back(id);
    return id;
  }

  template <typename Fn>
  int Time(std::string name, int parent, size_t request, Fn&& fn) {
    const double start = NowUs();
    fn();
    return Add(std::move(name), start, NowUs(), parent, request);
  }

  double Duration(int id) const {
    return spans_[id].end_us - spans_[id].start_us;
  }

  double Self(int id) const {
    double self = Duration(id);
    for (int child : children_[id]) self -= Duration(child);
    return self;
  }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << JsonObject()
                 .Num("id", static_cast<double>(i))
                 .Str("name", s.name)
                 .Num("start_us", s.start_us)
                 .Num("end_us", s.end_us)
                 .Num("parent", s.parent)
                 .Num("request", static_cast<double>(s.request))
                 .Finish()
          << "\n";
    }
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::vector<int>> children_;
};

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// The pool configuration hopi_serve builds from its flag defaults.
hopi::engine::EnginePoolOptions ServePoolOptions(size_t workers) {
  hopi::engine::EnginePoolOptions options;
  options.num_threads = workers;
  options.label_cache_bytes = 4096 * 1024;
  options.queue_capacity = 128;
  options.shed_high_watermark = 256;
  options.shed_low_watermark = 0;
  options.overlay_hop_budget = 8;
  return options;
}

constexpr size_t kShardSamples = 16;     // batches through the sharded engine
constexpr size_t kDescendantProbes = 64; // per path-set step tag

}  // namespace

std::string TraceLayers(const TraceInput& in, Gate* gate) {
  const Workload& w = *in.workload;
  const size_t threads = std::max(1u, std::thread::hardware_concurrency());
  JsonObject metrics;
  auto put = [&](const char* name, double value, const char* unit) {
    metrics.Raw(name, Metric(value, unit));
  };

  // ---- build: hopi_serve's options (distance-aware; num_threads left
  // at its default, as the server leaves it) ----
  hopi::collection::Collection build_collection = *in.base;
  hopi::IndexBuildOptions build_options;
  build_options.with_distance = true;
  hopi::IndexBuildStats stats;
  const double cpu0 = CpuSeconds();
  const double build_start = NowUs();
  auto built = hopi::BuildIndex(&build_collection, build_options, &stats);
  const double build_wall = (NowUs() - build_start) / 1e6;
  const double build_cpu = CpuSeconds() - cpu0;
  if (!built.ok()) {
    std::cerr << "perfbench: build failed: " << built.status() << "\n";
    std::exit(2);
  }
  const hopi::HopiIndex index = std::move(built).value();
  auto snapshot = hopi::engine::BackendSnapshot::Freeze(index);
  const uint64_t n = snapshot->collection().NumElements();

  // ---- the sampled requests ----
  const Phase* phase = in.open_reads;
  const std::vector<Batch>* batches = in.open_batches;
  Phase tail;
  std::vector<Batch> tail_batches;
  if (phase == nullptr || phase->records.empty()) {
    tail_batches = MakeBatches(in.seed * 1000 + 4, n, 2 * in.samples,
                               w.batch_pairs, in.zipf_s);
    LoadSpec spec{in.port, "/v1/batch", 2,
                  static_cast<double>(tail_batches.size()) / w.batch_rate,
                  w.batch_rate, 0,
                  [&](size_t id) -> const std::string& {
                    return tail_batches[id].body;
                  },
                  in.client_cpu};
    tail = RunLoad(spec);
    for (const Record& r : tail.records) {
      ++gate->attempted;
      if (r.status != 200) gate->Fail("traced batch status");
    }
    phase = &tail;
    batches = &tail_batches;
  }
  const size_t stride =
      std::max<size_t>(2, phase->records.size() /
                              std::max<size_t>(1, in.samples));
  std::vector<const Record*> sampled;
  for (const Record& r : phase->records) {
    if (r.status == 200 && r.id % stride == 0 && sampled.size() < in.samples) {
      sampled.push_back(&r);
    }
  }

  // The shard plan, as hopi_serve --shards=2 builds it: on every core.
  hopi::collection::Collection shard_collection = *in.base;
  hopi::engine::ShardPlanOptions plan_options;
  plan_options.num_shards = 2;
  plan_options.with_distance = true;
  plan_options.num_threads = threads;
  const double plan_start = NowUs();
  auto plan = hopi::engine::BuildShardPlan(&shard_collection, plan_options);
  const double plan_s = (NowUs() - plan_start) / 1e6;
  if (!plan.ok()) {
    std::cerr << "perfbench: shard plan failed: " << plan.status() << "\n";
    std::exit(2);
  }

  // ---- private stacks over the same snapshot ----
  // They run on the CPU the server ran on (it is idle now): the replays
  // and their pool workers, which inherit the mask, see the same single
  // CPU as the round trips they are subtracted from.
  cpu_set_t saved_mask;
  const bool restore_mask =
      ::sched_getaffinity(0, sizeof(saved_mask), &saved_mask) == 0;
  if (in.server_cpu >= 0) PinToCpu(in.server_cpu);
  hopi::engine::EnginePool pool(snapshot, ServePoolOptions(w.workers));
  hopi::engine::QueryEngineOptions engine_options;
  engine_options.shared_tags = snapshot->tags();
  hopi::engine::QueryEngine engine(snapshot->collection(),
                                   snapshot->MakeBackend(), engine_options);
  const std::unique_ptr<hopi::engine::ReachabilityBackend> backend =
      snapshot->MakeBackend();

  hopi::engine::EnginePoolOptions overlay_options =
      ServePoolOptions(w.workers);
  overlay_options.max_delta_ops = 4 * kAbsorbOps;
  hopi::engine::EnginePool overlay_pool(snapshot, overlay_options);
  if (!overlay_pool.EnableMutations(index).ok()) gate->Fail("EnableMutations");

  hopi::engine::ShardedEngineOptions shard_options;
  shard_options.threads_per_shard = 1;
  shard_options.label_cache_bytes = 4096 * 1024;
  shard_options.queue_capacity = 128;
  hopi::engine::ShardedEngine sharded(&shard_collection, &plan.value(),
                                      shard_options);
  const size_t shard_samples = std::min(sampled.size(), kShardSamples);

  // The op stream, applied on its schedule as the sampled requests'
  // send times pass.
  const std::vector<Mutation>& ops = *in.ops;
  std::vector<double> apply_us, absorb_ms, pause_us;
  size_t next_op = 0;
  auto apply_until = [&](double t_us) {
    while (next_op < ops.size() &&
           static_cast<double>(next_op) / in.op_rate * 1e6 <= t_us) {
      const double start = NowUs();
      auto receipt = overlay_pool.ApplyMutation(ops[next_op]);
      apply_us.push_back(NowUs() - start);
      if (!receipt.ok()) {
        gate->Fail("overlay replay: " + receipt.status().ToString());
      }
      ++next_op;
      if (overlay_pool.delta()->num_ops() >= kAbsorbOps) {
        const double t = NowUs();
        auto rebuilt =
            overlay_pool.RebuildNow(hopi::engine::RebuildMode::kAbsorb);
        absorb_ms.push_back((NowUs() - t) / 1000.0);
        if (rebuilt.ok()) {
          pause_us.push_back(static_cast<double>(rebuilt->writer_pause_us));
        } else {
          gate->Fail("absorb: " + rebuilt.status().ToString());
        }
      }
    }
  };

  // Warm every stack's caches on the sampled batches, as the server's
  // were by the load.
  for (const Record* r : sampled) {
    BatchRequest request;
    request.pairs = (*batches)[r->id].pairs;
    (void)pool.Batch(request);
    (void)engine.Batch(request);
  }

  // ---- replay the sampled requests through the layers ----
  Tracer tracer;
  const hopi::net::JsonWire wire;
  std::vector<double> parse_us, decode_us, serialize_us, residual_us, root_us;
  std::vector<double> pool_us, engine_us, dedup, fetch_ns, join_ns, entries,
      overlay_us, shard_us, delta_ops;
  std::vector<double> self_net, lane_wait_us, self_engine, self_twohop;
  for (size_t s = 0; s < sampled.size(); ++s) {
    const Record& r = *sampled[s];
    apply_until(r.sent_us);
    const Batch& batch = (*batches)[r.id];
    const std::string bytes = HttpRequestBytes("/v1/batch", batch.body);
    const int root =
        tracer.Add("http.round_trip", r.sent_us, r.done_us, -1, r.id);

    hopi::net::HttpParser parser;
    hopi::net::HttpRequest http_request;
    hopi::net::HttpError http_error;
    const int parse = tracer.Time("net.http_parse", root, r.id, [&] {
      parser.Feed(bytes);
      (void)parser.Next(&http_request, &http_error);
    });
    std::optional<hopi::Result<BatchRequest>> decoded;
    const int decode = tracer.Time("net.json_decode", root, r.id, [&] {
      decoded.emplace(wire.ParseBatchRequest(http_request.body, n));
    });
    if (!decoded->ok()) {
      gate->Fail("traced request does not decode");
      continue;
    }
    const BatchRequest& request = decoded->value();

    // The serving layers, one call each.
    const double pool_start = NowUs();
    auto pooled = pool.Batch(request);
    const double pool_end = NowUs();
    const double overlay_start = NowUs();
    auto overlaid = overlay_pool.Batch(request);
    const double overlay_end = NowUs();
    delta_ops.push_back(static_cast<double>(overlay_pool.delta()->num_ops()));
    if (s < shard_samples) {
      const double shard_start = NowUs();
      if (!sharded.Batch(request).ok()) gate->Fail("traced sharded batch");
      shard_us.push_back(NowUs() - shard_start);
    }
    const double engine_start = NowUs();
    const hopi::engine::BatchResponse direct = engine.Batch(request);
    const double engine_end = NowUs();
    if (!pooled.ok() || !overlaid.ok()) {
      gate->Fail("traced pool batch failed");
      continue;
    }
    if (pooled->batch.reachable != direct.reachable) {
      gate->Fail("pool and engine disagree on a traced batch");
    }

    // Label fetch and join over the de-duplicated probes, as the engine
    // runs them.
    std::vector<hopi::engine::NodePair> unique;
    {
      std::unordered_set<uint64_t> seen;
      for (const auto& [u, v] : request.pairs) {
        const uint64_t key = (static_cast<uint64_t>(u) << 32) | v;
        if (u != v && seen.insert(key).second) {
          unique.emplace_back(u, v);
        }
      }
    }
    std::vector<std::pair<hopi::twohop::JoinView, hopi::twohop::JoinView>>
        views(unique.size());
    const double fetch_start = NowUs();
    for (size_t i = 0; i < unique.size(); ++i) {
      views[i].first = backend->BorrowOutJoin(unique[i].first).value_or(
          hopi::twohop::JoinView{});
      views[i].second = backend->BorrowInJoin(unique[i].second).value_or(
          hopi::twohop::JoinView{});
    }
    const double fetch_end = NowUs();
    size_t reachable = 0;
    for (size_t i = 0; i < unique.size(); ++i) {
      reachable += hopi::twohop::JoinViews(unique[i].first, unique[i].second,
                                           views[i].first, views[i].second,
                                           false)
                       .connected;
    }
    const double join_end = NowUs();
    double label_entries = 0.0;
    for (const auto& [out, inl] : views) {
      label_entries += static_cast<double>(out.n + inl.n);
    }
    (void)reachable;

    const int serve =
        tracer.Add("engine_pool.batch", pool_start, pool_end, root, r.id);
    const int eng =
        tracer.Add("engine.batch", engine_start, engine_end, serve, r.id);
    const int fetch =
        tracer.Add("engine.label_fetch", fetch_start, fetch_end, eng, r.id);
    const int join = tracer.Add("twohop.join", fetch_end, join_end, eng, r.id);
    (void)fetch;
    const int serialize = tracer.Time("net.serialize", root, r.id, [&] {
      hopi::net::HttpResponse response;
      response.body = hopi::net::JsonWire::SerializeBatchResponse(*pooled);
      (void)hopi::net::SerializeResponse(response);
    });

    const double probes = static_cast<double>(request.pairs.size());
    const double uniq =
        std::max<double>(1.0, static_cast<double>(unique.size()));
    parse_us.push_back(tracer.Duration(parse));
    decode_us.push_back(tracer.Duration(decode));
    serialize_us.push_back(tracer.Duration(serialize));
    root_us.push_back(tracer.Duration(root));
    residual_us.push_back(tracer.Self(root));
    pool_us.push_back(pool_end - pool_start);
    engine_us.push_back(engine_end - engine_start);
    overlay_us.push_back(overlay_end - overlay_start);
    dedup.push_back(static_cast<double>(direct.stats.unique_probes) / probes);
    fetch_ns.push_back((fetch_end - fetch_start) * 1000.0 / uniq);
    join_ns.push_back((join_end - fetch_end) * 1000.0 / uniq);
    entries.push_back(label_entries / uniq);
    self_net.push_back(tracer.Self(parse) + tracer.Self(decode) +
                       tracer.Self(serialize));
    lane_wait_us.push_back(tracer.Self(serve));
    self_engine.push_back(tracer.Self(eng) + tracer.Duration(fetch));
    self_twohop.push_back(tracer.Self(join));
  }
  apply_until(1e300);  // the rest of the stream: every absorb cycle

  put("split.root_us", Median(root_us), "us");
  put("split.net_us", Median(self_net), "us");
  put("split.engine_us", Median(self_engine), "us");
  put("split.twohop_us", Median(self_twohop), "us");
  put("split.samples", static_cast<double>(root_us.size()), "count");

  put("net.http_parse_us", Median(parse_us), "us");
  put("net.json_decode_us", Median(decode_us), "us");
  put("net.serialize_us", Median(serialize_us), "us");
  put("net.socket_residual_us", Median(residual_us), "us");
  put("engine_pool.batch_us", Median(pool_us), "us");
  put("engine_pool.lane_wait_us", Median(lane_wait_us), "us");
  put("engine_pool.apply_mutation_us", Median(apply_us), "us");
  put("engine_pool.rebuild_absorb_ms", Median(absorb_ms), "ms");
  put("engine_pool.rebuild_writer_pause_us", Median(pause_us), "us");
  put("engine.batch_us", Median(engine_us), "us");
  put("engine.dedup_ratio", Median(dedup), "ratio");
  put("engine.label_fetch_ns_per_probe", Median(fetch_ns), "ns");
  put("twohop.join_ns_per_probe", Median(join_ns), "ns");
  put("twohop.label_entries_per_probe", Median(entries), "count");

  const hopi::engine::PoolStats overlay_stats = overlay_pool.Stats();
  put("overlay.batch_us", Median(overlay_us), "us");
  put("overlay.bfs_fallback_ratio",
      Ratio(static_cast<double>(overlay_stats.overlay_bfs_fallbacks),
            static_cast<double>(overlay_stats.overlay_probes)),
      "ratio");
  put("overlay.budget_exhaustions",
      static_cast<double>(overlay_stats.overlay_budget_exhaustions), "count");
  put("overlay.delta_ops", Mean(delta_ops), "count");

  // ---- Sec 6 maintenance on a private index, same op stream ----
  {
    hopi::collection::Collection collection = *in.base;
    hopi::HopiIndex maintained(&collection, index.cover(), true);
    std::vector<double> by_kind[4];
    for (const Mutation& m : ops) {
      hopi::Status status;
      double start = 0.0;
      switch (m.kind) {
        case Mutation::Kind::kInsertLink:
          start = NowUs();
          status = maintained.InsertLink(m.source, m.target);
          break;
        case Mutation::Kind::kDeleteLink:
          start = NowUs();
          status = maintained.DeleteLink(m.source, m.target);
          break;
        case Mutation::Kind::kInsertDocument: {
          const auto doc = collection.AddDocument(m.doc_name);
          std::vector<NodeId> ids;
          for (const auto& spec : m.elements) {
            ids.push_back(collection.AddElement(
                doc, spec.tag,
                spec.parent ? ids[*spec.parent] : hopi::kInvalidNode));
          }
          start = NowUs();
          status = maintained.InsertDocument(doc);
          break;
        }
        case Mutation::Kind::kDeleteDocument:
          start = NowUs();
          status = maintained.DeleteDocument(m.doc);
          break;
      }
      by_kind[static_cast<int>(m.kind)].push_back(NowUs() - start);
      if (!status.ok()) gate->Fail("Sec 6 replay: " + status.ToString());
    }
    put("hopi.insert_link_us", Median(by_kind[0]), "us");
    put("hopi.insert_document_us", Median(by_kind[2]), "us");
    put("hopi.delete_document_us", Median(by_kind[3]), "us");
    put("hopi.degradation", maintained.DegradationFactor(), "ratio");
  }

  // ---- path evaluation over the fixed set ----
  {
    std::vector<double> eval_ms, candidates, descendants_us;
    std::unordered_set<std::string> probed_tags;
    for (const PathSpec& spec : *in.path_set) {
      hopi::engine::PathQueryRequest request;
      request.expression = spec.expression;
      request.count_only = spec.count_only;
      request.max_matches = spec.max_matches;
      const double start = NowUs();
      auto result = engine.Query(request);
      eval_ms.push_back((NowUs() - start) / 1000.0);
      if (!result.ok()) gate->Fail("in-process path query failed");
      auto expr = hopi::query::PathExpression::Parse(spec.expression);
      if (!expr.ok()) continue;
      for (const auto& step : expr->steps) {
        const auto& found = snapshot->tags()->Lookup(step.tag);
        candidates.push_back(static_cast<double>(found.size()));
      }
      // Descendants() of the first step's candidates: what every
      // multi-step query enumerates.
      if (expr->steps.size() < 2 ||
          !probed_tags.insert(expr->steps[0].tag).second) {
        continue;
      }
      const auto& first = snapshot->tags()->Lookup(expr->steps[0].tag);
      const size_t step =
          std::max<size_t>(1, first.size() / kDescendantProbes);
      for (size_t i = 0; i < first.size(); i += step) {
        const double t = NowUs();
        (void)backend->Descendants(first[i]);
        descendants_us.push_back(NowUs() - t);
      }
    }
    put("query.eval_ms", Mean(eval_ms), "ms");
    put("query.candidates_per_step", Mean(candidates), "count");
    put("twohop.descendants_us", Mean(descendants_us), "us");
  }

  // ---- build and shard plan ----
  put("partition.s", stats.partition_seconds, "s");
  put("partition.largest_share",
      Ratio(static_cast<double>(stats.largest_partition_connections),
            static_cast<double>(stats.total_partition_connections)),
      "ratio");
  put("twohop.covers_s", stats.covers_seconds, "s");
  put("twohop.covers_cpu_util",
      Ratio(build_cpu,
            build_wall * static_cast<double>(build_options.num_threads)),
      "ratio");
  put("twohop.speculative_waste_ratio",
      Ratio(static_cast<double>(stats.cover_build.speculative_wasted),
            static_cast<double>(stats.cover_build.speculative_evaluations)),
      "ratio");
  put("hopi.join_s", stats.join_seconds, "s");
  put("hopi.cover_entries", static_cast<double>(stats.cover_entries), "count");

  const hopi::engine::ShardStats shard_stats = sharded.Stats();
  const double routed =
      static_cast<double>(shard_stats.direct_pairs + shard_stats.cross_pairs);
  put("shard.plan_s", plan_s, "s");
  put("shard.batch_us", Median(shard_us), "us");
  put("shard.cross_ratio",
      Ratio(static_cast<double>(shard_stats.cross_pairs), routed), "ratio");
  put("shard.leg_probes_per_cross_pair",
      Ratio(static_cast<double>(shard_stats.leg_probes),
            static_cast<double>(shard_stats.cross_pairs)),
      "count");
  put("shard.subbatches_per_batch",
      Ratio(static_cast<double>(shard_stats.subbatches),
            static_cast<double>(shard_stats.batches)),
      "count");
  put("shard.merge_us",
      Ratio(static_cast<double>(shard_stats.merge_latency_us_total),
            static_cast<double>(shard_stats.merges)),
      "us");

  sharded.Shutdown();
  overlay_pool.Shutdown();
  pool.Shutdown();
  if (restore_mask) ::sched_setaffinity(0, sizeof(saved_mask), &saved_mask);
  tracer.Write(in.trace_path);
  return metrics.Finish();
}

}  // namespace perfbench
