#include "engine_kit.h"

#include <deque>
#include <filesystem>
#include <map>
#include <thread>

#include "query/eval_context.h"
#include "storage/snapshot_format.h"
#include "trace.h"

namespace loadbench {
namespace {

uint64_t Key(Node src, Node dst, uint16_t label) {
  return (static_cast<uint64_t>(src) << 40) ^
         (static_cast<uint64_t>(dst) << 16) ^ label;
}

std::string Describe(const EdgeOp& op) {
  static const char* kKinds[] = {"add", "remove", "add-node"};
  return std::string(kKinds[static_cast<int>(op.kind)]) + " " +
         std::to_string(op.src) + "->" + std::to_string(op.dst) + " label " +
         std::to_string(op.label);
}

// Evaluator names a single engine with default options reports for
// single checks.
const char* const kEvaluatorNames[] = {"owner", "online-bfs", "join-index"};

}  // namespace

EdgeOp WriteChooser::Next(bool add_only) {
  EdgeOp op;
  const auto& edges = mirror_->edges();
  const size_t span = user_limit_ - user_floor_;
  auto in_range = [&](Node v) { return v >= user_floor_ && v < user_limit_; };
  std::optional<MirrorEdge> victim;
  if (!add_only && !edges.empty() && rng_.Below(100) < 45) {
    for (int tries = 0; tries < 100000 && !victim; ++tries) {
      const MirrorEdge e = edges[rng_.Below(edges.size())];
      if (in_range(e.src) && in_range(e.dst)) victim = e;
    }
  }
  if (victim) {
    const MirrorEdge e = *victim;
    op = {EdgeOp::Kind::kRemove, e.src, e.dst, e.label};
    mirror_->RemoveEdge(e.src, e.dst, e.label);
  } else {
    const uint64_t labels = 3;
    for (;;) {
      const Node src = static_cast<Node>(user_floor_ + rng_.Below(span));
      const Node dst = static_cast<Node>(user_floor_ + rng_.Below(span));
      const auto label = static_cast<uint16_t>(rng_.Below(labels));
      if (src == dst || mirror_->HasEdge(src, dst, label)) continue;
      op = {EdgeOp::Kind::kAdd, src, dst, label};
      mirror_->AddEdge(src, dst, label);
      break;
    }
  }
  Touch(op);
  return op;
}

EdgeOp WriteChooser::NextTransient() {
  if (pending_removal_) {
    EdgeOp op = *pending_removal_;
    pending_removal_.reset();
    op.kind = EdgeOp::Kind::kRemove;
    mirror_->RemoveEdge(op.src, op.dst, op.label);
    return op;
  }
  const EdgeOp op = Next(/*add_only=*/true);
  pending_removal_ = op;
  return op;
}

EdgeOp WriteChooser::NextNode() {
  EdgeOp op;
  op.kind = EdgeOp::Kind::kAddNode;
  op.src = mirror_->AddNode();
  return op;
}

void WriteChooser::Undo(const EdgeOp& op) {
  if (op.kind == EdgeOp::Kind::kAdd) {
    mirror_->RemoveEdge(op.src, op.dst, op.label);
  } else if (op.kind == EdgeOp::Kind::kRemove) {
    mirror_->AddEdge(op.src, op.dst, op.label);
  }
}

void WriteChooser::Touch(const EdgeOp& op) {
  if (touched_keys_.insert(Key(op.src, op.dst, op.label)).second) {
    touched_.push_back({op.src, op.dst, op.label});
  }
}

sargus::WriteTicket SubmitOp(sargus::AccessControlEngine& engine,
                             const EdgeOp& op) {
  Span span("engine.submit");
  switch (op.kind) {
    case EdgeOp::Kind::kAdd:
      return engine.SubmitAddEdge(op.src, op.dst,
                                  static_cast<sargus::LabelId>(op.label));
    case EdgeOp::Kind::kRemove:
      return engine.SubmitRemoveEdge(op.src, op.dst,
                                     static_cast<sargus::LabelId>(op.label));
    case EdgeOp::Kind::kAddNode:
      return engine.SubmitAddNode();
  }
  return {};
}

EngineBox SetupEngines(const Inputs& in, int reps,
                       const std::string& durable_dir, Samples& setup_s,
                       Samples& rebuild_s) {
  EngineBox box;
  for (int r = 0; r < reps; ++r) {
    box = EngineBox{};
    auto graph = std::make_unique<sargus::SocialGraph>(in.graph);
    if (!durable_dir.empty()) ResetDir(durable_dir);
    const int64_t t0 = NowNs();
    auto engine =
        std::make_unique<sargus::AccessControlEngine>(*graph, in.store);
    sargus::Status s;
    {
      Span span("index.rebuild_indexes", Tracer::enabled() ? Tracer::NewRequest() : 0);
      s = engine->RebuildIndexes();
    }
    const int64_t t1 = NowNs();
    if (s.ok() && !durable_dir.empty()) {
      Span span("storage.enable_durability");
      sargus::DurabilityOptions d;
      d.wal_sync = sargus::storage::WalSyncPolicy::kGroupCommit;
      s = engine->EnableDurability(durable_dir, d);
    }
    const int64_t t2 = NowNs();
    if (!s.ok()) {
      std::fprintf(stderr, "engine set-up failed: %s\n", s.ToString().c_str());
      std::exit(2);
    }
    setup_s.Add(static_cast<double>(t2 - t0) / 1e9);
    rebuild_s.Add(static_cast<double>(t1 - t0) / 1e9);
    box.graph = std::move(graph);
    box.engine = std::move(engine);
  }
  return box;
}

double RunWriteBurst(sargus::AccessControlEngine& engine,
                     WriteChooser& chooser, std::mutex& chooser_mu,
                     size_t ops, int producers, size_t window, Ledger& ledger,
                     WriteKind kind, Samples* ack_us) {
  struct InFlight {
    sargus::WriteTicket ticket;
    EdgeOp op;
    int64_t submitted_ns;
  };
  std::mutex ack_mu;
  const int64_t start = NowNs();
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    const size_t share = ops / producers + (p < static_cast<int>(ops % producers));
    threads.emplace_back([&, share] {
      std::deque<InFlight> inflight;
      Samples acks;
      auto settle = [&] {
        InFlight f = std::move(inflight.front());
        inflight.pop_front();
        sargus::WriteOutcome out;
        {
          Span span("engine.ticket_wait");
          out = f.ticket.Wait();
        }
        if (ack_us != nullptr) acks.Add(NsToUs(NowNs() - f.submitted_ns));
        if (!out.status.ok()) {
          ledger.Fail(Describe(f.op) + ": " + out.status.ToString());
          std::lock_guard<std::mutex> lock(chooser_mu);
          chooser.Undo(f.op);
        }
      };
      for (size_t i = 0; i < share; ++i) {
        if (inflight.size() >= window) settle();
        Span root("bench.write", Tracer::enabled() ? Tracer::NewRequest() : 0);
        std::lock_guard<std::mutex> lock(chooser_mu);
        const EdgeOp op = kind == WriteKind::kTransient
                              ? chooser.NextTransient()
                              : chooser.Next(kind == WriteKind::kAddOnly);
        const int64_t t0 = NowNs();
        inflight.push_back({SubmitOp(engine, op), op, t0});
      }
      while (!inflight.empty()) settle();
      if (ack_us != nullptr) {
        std::lock_guard<std::mutex> lock(ack_mu);
        ack_us->Append(acks);
      }
    });
  }
  for (auto& t : threads) t.join();
  ledger.Attempt(ops);
  return static_cast<double>(ops) / (static_cast<double>(NowNs() - start) / 1e9);
}

void RunPolicyRounds(sargus::AccessControlEngine& engine, Inputs& in,
                     int rounds, int64_t pace_ns, uint64_t seed,
                     Samples& refresh_us, Samples& rule_add_us,
                     Ledger& ledger) {
  Rand rng(seed);
  const auto& mix = RuleMix();
  const int64_t start = NowNs();
  for (int k = 0; k < rounds; ++k) {
    const int64_t due = start + k * pace_ns;
    if (NowNs() < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
    }
    // Rule registration is outside the engine's synchronization: let
    // the writer and the compaction thread go quiet first.
    engine.FlushWrites();
    engine.WaitForCompaction();
    Span root("bench.policy", Tracer::enabled() ? Tracer::NewRequest() : 0);
    ResourceSpec spec;
    spec.owner = in.user_rank[rng.Below(in.user_rank.size() / 4)];
    spec.paths = mix[rng.Below(mix.size())];
    for (const std::string& p : spec.paths) {
      RefExpr expr;
      std::string error;
      ParseRefExpr(p, &expr, &error);
      spec.exprs.push_back(std::move(expr));
    }
    const int64_t t0 = NowNs();
    sargus::ResourceId id;
    sargus::Status s;
    {
      Span span("core.add_rule");
      id = in.store.RegisterResource(spec.owner, "policy" + std::to_string(k));
      s = in.store.AddRuleFromPaths(id, spec.paths).status();
    }
    const int64_t t1 = NowNs();
    if (s.ok()) {
      Span span("engine.refresh_policies");
      s = engine.RefreshPolicies();
    }
    const int64_t t2 = NowNs();
    ledger.Attempt();
    if (!s.ok()) {
      ledger.Fail("policy round: " + s.ToString());
      continue;
    }
    rule_add_us.Add(NsToUs(t1 - t0));
    refresh_us.Add(NsToUs(t2 - t1));
    in.resources.push_back(std::move(spec));
    // The new rule serves at once and agrees with the reference.
    AudienceCache audience(&in);
    const std::vector<Node>& a = audience.Get(id);
    for (int i = 0; i < 16; ++i) {
      const Node who = i % 2 == 0 && !a.empty()
                           ? a[rng.Below(a.size())]
                           : in.user_rank[rng.Below(in.user_rank.size())];
      const sargus::AccessRequest req = Request(who, id);
      auto d = engine.CheckAccess(req);
      if (!d.ok() || d->granted != audience.Grant(req.requester, id)) {
        ledger.Mismatch("new rule " + std::to_string(id) +
                        " disagrees with the reference for requester " +
                        std::to_string(req.requester));
      }
    }
  }
}

void VerifyRecovered(sargus::AccessControlEngine& engine,
                     sargus::PolicyStore& store, const WriteChooser& chooser,
                     const Inputs& in, const RequestPools& pools,
                     Ledger& ledger) {
  auto view = engine.AcquireReadView();
  if (view == nullptr || view->logical_num_nodes() != in.mirror.num_nodes()) {
    ledger.Mismatch("reopened engine has " +
                    std::to_string(view ? view->logical_num_nodes() : 0) +
                    " nodes, the mirror " +
                    std::to_string(in.mirror.num_nodes()));
  }
  // Probe every written edge with a one-hop rule owned by its source:
  // granted exactly when the edge is live.
  std::map<std::pair<Node, uint16_t>, sargus::ResourceId> probes;
  for (const MirrorEdge& e : chooser.touched()) {
    if (e.src == e.dst) continue;  // an owner is always granted
    auto [it, fresh] = probes.try_emplace({e.src, e.label}, 0);
    if (!fresh) continue;
    it->second = store.RegisterResource(e.src, "probe");
    auto rule = store.AddRuleFromPaths(
        it->second, {in.mirror.LabelName(e.label) + "[1]"});
    if (!rule.ok()) ledger.Mismatch("probe rule: " + rule.status().ToString());
  }
  if (auto s = engine.RefreshPolicies(); !s.ok()) {
    ledger.Mismatch("probe refresh: " + s.ToString());
    return;
  }
  size_t lost = 0;
  for (const MirrorEdge& e : chooser.touched()) {
    if (e.src == e.dst) continue;
    auto d = engine.CheckAccess(Request(e.dst, probes[{e.src, e.label}]));
    if (!d.ok() || d->granted != in.mirror.HasEdge(e.src, e.dst, e.label)) {
      ++lost;
    }
  }
  if (lost > 0) {
    ledger.Mismatch(std::to_string(lost) + " of " +
                    std::to_string(chooser.touched().size()) +
                    " written edges differ after reopen");
  }
  // Sampled decisions against the reference on the final mirror.
  AudienceCache audiences(&in);
  size_t checked = 0;
  for (size_t i = 0; i < pools.singles.size() && checked < 4096; ++i) {
    const sargus::AccessRequest& req = pools.singles[i];
    if (req.resource >= 48) continue;  // bounded reference work
    auto d = engine.CheckAccess(req);
    ++checked;
    if (!d.ok() || d->granted != audiences.Grant(req.requester, req.resource)) {
      ledger.Mismatch("after reopen the reference disagrees on requester " +
                      std::to_string(req.requester) + " resource " +
                      std::to_string(req.resource));
    }
  }
}

uint64_t BundleBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().filename() == sargus::storage::kWalFileName) continue;
    total += entry.file_size();
  }
  return total;
}

void ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
}

size_t OverlayEntries(const sargus::AccessControlEngine& engine) {
  auto view = engine.AcquireReadView();
  return view == nullptr ? 0 : view->overlay().size();
}

void MeasureEngineLayers(const sargus::AccessControlEngine& engine,
                         const RequestPools& pools, MetricTable& layer) {
  sargus::EvalContext ctx;
  Samples acquire_ns;
  for (int i = 0; i < 20000; ++i) {
    const int64_t t0 = NowNs();
    {
      Span span("engine.acquire_read_view");
      auto v = engine.AcquireReadView();
    }
    acquire_ns.Add(static_cast<double>(NowNs() - t0));
  }
  layer.Set("engine.view_acquire_ns", acquire_ns.Median(), "ns");

  auto view = engine.AcquireReadView();
  const size_t n = std::min<size_t>(pools.singles.size(), 20000);
  for (size_t i = 0; i < n; ++i) (void)view->CheckAccess(pools.singles[i], ctx);
  Samples pinned;
  Samples facade;
  std::map<std::string, Samples> by_evaluator;
  double pairs = 0;
  for (size_t i = 0; i < n; ++i) {
    const sargus::AccessRequest& req = pools.singles[i];
    auto run_pinned = [&] {
      const int64_t t0 = NowNs();
      sargus::Result<sargus::AccessDecision> d = [&] {
        Span span("engine.view_check_access", Tracer::NewRequest());
        return view->CheckAccess(req, ctx);
      }();
      const double us = NsToUs(NowNs() - t0);
      pinned.Add(us);
      if (d.ok()) {
        by_evaluator[std::string(d->evaluator_name)].Add(us);
        pairs += static_cast<double>(d->stats.pairs_visited);
      }
    };
    auto run_facade = [&] {
      const int64_t t0 = NowNs();
      {
        Span span("engine.check_access", Tracer::NewRequest());
        (void)engine.CheckAccess(req);
      }
      facade.Add(NsToUs(NowNs() - t0));
    };
    // Alternate which goes first so neither always finds warm caches.
    if (i % 2 == 0) {
      run_pinned();
      run_facade();
    } else {
      run_facade();
      run_pinned();
    }
  }
  layer.Set("engine.pinned_check_p50_us", pinned.Median(), "us");
  layer.Set("engine.pinned_check_p99_us", pinned.Quantile(0.99), "us");
  layer.Set("engine.facade_overhead_us", facade.Median() - pinned.Median(),
            "us");
  layer.Set("query.pairs_visited_per_check", pairs / static_cast<double>(n),
            "count");
  for (const char* name : kEvaluatorNames) {
    auto it = by_evaluator.find(name);
    const double share =
        it == by_evaluator.end()
            ? 0.0
            : static_cast<double>(it->second.size()) / static_cast<double>(n);
    layer.Set(std::string("query.share.") + name, share, "ratio");
    layer.Set(std::string("query.check_p50_us.") + name,
              it == by_evaluator.end() ? 0.0 : it->second.Median(), "us");
  }

  // Feed batches against looping the same requests on the same view.
  int64_t batch_ns = 0;
  int64_t loop_ns = 0;
  uint64_t slots = 0;
  uint64_t audience_slots = 0;
  const size_t batches = std::min<size_t>(pools.feeds.size(), 256);
  for (size_t b = 0; b < batches; ++b) {
    const auto& reqs = pools.feeds[b].requests;
    auto run_batch = [&] {
      const int64_t t0 = NowNs();
      Span span("engine.view_check_access_batch", Tracer::NewRequest());
      (void)view->CheckAccessBatch(reqs, ctx);
      batch_ns += NowNs() - t0;
    };
    auto run_loop = [&] {
      const int64_t t0 = NowNs();
      Span span("engine.view_check_access_loop", Tracer::NewRequest());
      for (const auto& r : reqs) (void)view->CheckAccess(r, ctx);
      loop_ns += NowNs() - t0;
    };
    if (b % 2 == 0) {
      run_batch();
      run_loop();
    } else {
      run_loop();
      run_batch();
    }
    for (const auto* pool : {&pools.feeds, &pools.fanouts}) {
      for (const auto& d : view->CheckAccessBatch((*pool)[b].requests, ctx)) {
        ++slots;
        if (d.ok() && d->evaluator_name == "batch-audience") ++audience_slots;
      }
    }
  }
  layer.Set("engine.batch_over_loop",
            static_cast<double>(batch_ns) / static_cast<double>(loop_ns),
            "ratio");
  layer.Set("query.batch_audience_share",
            static_cast<double>(audience_slots) / static_cast<double>(slots),
            "ratio");
}

}  // namespace loadbench
