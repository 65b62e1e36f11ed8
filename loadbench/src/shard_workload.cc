// sharded-feed: a burst of router edge writes that leaves some boundary
// summaries stale, the read mix through ShardRouter at 4 shards, a
// summary refresh and a restart of the shards from their bundles.
#include <thread>

#include "engine_kit.h"
#include "engine_workloads.h"
#include "shard/router.h"
#include "shard/shard_engine.h"
#include "trace.h"

namespace loadbench {
namespace {

constexpr int kSetupReps = 3;
constexpr uint32_t kShards = 4;
constexpr size_t kRouterWrites = 2048;
constexpr int kWindows = 10;
// Many small rounds, so the writes spread over the latency run the way
// the reads do, and few enough writes per round that no shard's overlay
// reaches the engine's auto-compaction threshold (at least 1,024
// entries) between the folds that end the rounds.
constexpr int kWriteRounds = 64;
constexpr int kReopenRounds = 21;
// Reopen rounds start at most this often: a reopen's cost drifts over
// seconds on a shared machine, and rounds spread over a second give a
// median of several of those stretches rather than of one.
constexpr int64_t kReopenPaceNs = 50'000'000;
constexpr int kRefreshes = 3;

Shape ShardedShape() {
  Shape shape;
  shape.dataset_seed = 20120328;
  shape.nodes = 4096;
  shape.resources = 128;
  shape.audience_resources = 32;
  return shape;
}

sargus::RouterOptions Options(bool threaded) {
  sargus::RouterOptions o;
  o.partition.num_shards = kShards;
  o.threaded_transport = threaded;
  // No deadlines: a loaded machine must not turn slow calls into
  // explicit timeouts, which would be counted as failed operations.
  o.robustness.call_deadline_ms = 0;
  o.robustness.op_budget_ms = 0;
  return o;
}

struct RouterBox {
  std::unique_ptr<sargus::SocialGraph> graph;
  std::unique_ptr<sargus::ShardRouter> router;
};

sargus::Status ApplyRouterWrite(sargus::ShardRouter& router, const EdgeOp& op) {
  Span span("shard.mutate");
  const auto label = static_cast<sargus::LabelId>(op.label);
  return op.kind == EdgeOp::Kind::kAdd ? router.AddEdge(op.src, op.dst, label)
                                       : router.RemoveEdge(op.src, op.dst,
                                                           label);
}

}  // namespace

void RunShardedFeed(const RunArgs& args, RunOutput& out) {
  const Shape shape = ShardedShape();
  if (args.single_engine) {
    RunEngineFeed(args, shape, out);
    return;
  }
  const double T = args.seconds;
  const int64_t sec = 1'000'000'000;
  auto in = MakeInputs(shape);

  Samples setup_s;
  RouterBox box;
  for (int r = 0; r < kSetupReps; ++r) {
    box = RouterBox{};
    box.graph = std::make_unique<sargus::SocialGraph>(in->graph);
    const int64_t t0 = NowNs();
    box.router =
        std::make_unique<sargus::ShardRouter>(*box.graph, in->store,
                                              Options(false));
    sargus::Status s;
    {
      Span span("shard.build", Tracer::enabled() ? Tracer::NewRequest() : 0);
      s = box.router->Build();
    }
    if (!s.ok()) {
      std::fprintf(stderr, "router set-up failed: %s\n", s.ToString().c_str());
      std::exit(2);
    }
    setup_s.Add(static_cast<double>(NowNs() - t0) / 1e9);
  }
  sargus::ShardRouter& router = *box.router;
  out.e2e.Set("setup_s", setup_s.Median(), "s");
  out.layer.Set("shard.build_s", setup_s.Median(), "s");

  AudienceCache audiences(in.get());
  const RequestPools pools =
      MakeRequestPools(*in, audiences, args.seed, shape.nodes);
  RouterTarget target(&router);

  // Router edge writes without RefreshSummaries, all between nodes of
  // the upper three quarters of the id range (shards 1 to 3 under
  // contiguous partitioning): those shards' summaries go stale, so the
  // checks whose walks reach them take the fallback rounds and the rest
  // compose summaries. Two writes in three cross shards. Cross-shard
  // writes take about ten times as long as the others, so with an even
  // split the median would sit on the gap between the two groups and
  // jump between them from run to run. The write script is part of the
  // dataset (the same in every run), so the state the reads meet does
  // not vary with the seed. Writes come in kWriteRounds rounds spread
  // over the latency run, each followed by a fold of every shard's
  // overlay (so no background compaction starts at a moment that depends
  // on timing) and a slice of the latency run (checked against the
  // mirror as it then stands). Which shards are stale stays the same
  // throughout.
  WriteChooser chooser(&in->mirror, MixSeed(shape.dataset_seed, 11),
                       shape.nodes, shape.nodes / 4);
  std::vector<EdgeOp> applied;
  const int64_t slice_ns = static_cast<int64_t>(0.55 * T * sec) / kWriteRounds;
  const int64_t writes_from = NowNs();
  // Acks filed by round, so the stderr diagnostic shows how far the
  // figures moved over the run.
  WindowedSamples ack_us(writes_from, slice_ns);
  double write_s = 0;
  MixResult latency;
  uint64_t next_cycle = 7;
  for (int round = 0; round < kWriteRounds; ++round) {
    const int64_t w0 = NowNs();
    const int64_t round_at = writes_from + round * slice_ns;
    for (size_t i = 0; i < kRouterWrites / kWriteRounds; ++i) {
      Span root("bench.write", Tracer::enabled() ? Tracer::NewRequest() : 0);
      const EdgeOp op = chooser.Next();
      const int64_t t0 = NowNs();
      const sargus::Status s = ApplyRouterWrite(router, op);
      ack_us.Add(round_at, NsToUs(NowNs() - t0));
      out.ledger.Attempt();
      if (!s.ok()) {
        out.ledger.Fail("router write: " + s.ToString());
        chooser.Undo(op);
      } else {
        applied.push_back(op);
      }
    }
    write_s += static_cast<double>(NowNs() - w0) / 1e9;
    for (uint32_t i = 0; i < router.num_shards(); ++i) {
      sargus::AccessControlEngine& engine = router.shard(i).engine();
      engine.FlushWrites();
      if (auto s = engine.Compact(); !s.ok()) {
        out.ledger.Fail("shard Compact: " + s.ToString());
      }
      engine.WaitForCompaction();
    }
    audiences.Clear();
    for (size_t r = 0; r < shape.audience_resources; ++r) {
      audiences.Get(static_cast<sargus::ResourceId>(r));
    }
    if (round == 0) {
      RunMixFor(target, pools, *in, out.ledger, MixKind::kFull,
                static_cast<int64_t>(0.05 * T * sec), 1, 0);
    }
    // Each slice files into a window of its own and goes on through the
    // request pools where the previous one stopped.
    const int64_t now = NowNs();
    MixResult slice =
        RunMix(target, pools, *in, out.ledger, MixKind::kFull, now + slice_ns,
               next_cycle, {now - round * slice_ns, slice_ns});
    next_cycle += slice.batches / 2;
    VerifyLog(slice, pools, audiences, out.ledger, 4, "sharded latency run");
    latency.Merge(std::move(slice));
  }
  {
    const auto [lo, hi] = ack_us.WindowRange(0.5);
    std::fprintf(stderr, "router write ack p50 by round %.1f..%.1f us\n", lo,
                 hi);
  }
  out.layer.Set("load.write_ack_p50_us", ack_us.Median(), "us");
  out.layer.Set("load.write_ack_p99_us", ack_us.Quantile(0.99), "us");
  out.layer.Set("load.write_burst_per_s",
                static_cast<double>(kRouterWrites) / write_s, "1/s");
  MixResult throughput =
      RunMixThreads(target, pools, *in, out.ledger, MixKind::kSinglesOnly, 2,
                    static_cast<int64_t>(0.35 * T * sec), kWindows);
  VerifyLog(throughput, pools, audiences, out.ledger, 0,
            "sharded throughput run");

  // Batch results equal the router's per-request results.
  for (size_t b = 0; b < 32; ++b) {
    for (const auto* pool : {&pools.feeds, &pools.fanouts}) {
      const auto& reqs = (*pool)[b].requests;
      auto batch = router.CheckAccessBatch(reqs);
      for (size_t s = 0; s < reqs.size(); ++s) {
        auto one = router.CheckAccess(reqs[s]);
        if (!one.ok() || !batch[s].ok() || one->granted != batch[s]->granted) {
          out.ledger.Mismatch("router batch differs from per-request");
        }
      }
    }
  }
  {
    auto view = router.shard(0).engine().AcquireReadView();
    VerifyForcedEvaluators(*view, pools, 128, out.ledger, "shard 0");
  }

  ReportMix(latency, throughput, out.e2e, out.layer);

  if (args.trace) {
    // Classify single checks by the router counters' delta around each
    // call (one client, nothing else running).
    Samples local_us;
    Samples summary_us;
    Samples fallback_us;
    const size_t n = std::min<size_t>(pools.singles.size(), 4096);
    for (size_t i = 0; i < n; ++i) {
      const sargus::RouterCounters before = router.counters();
      const int64_t t0 = NowNs();
      {
        Span span("shard.check_access", Tracer::NewRequest());
        (void)router.CheckAccess(pools.singles[i]);
      }
      const double us = NsToUs(NowNs() - t0);
      const sargus::RouterCounters after = router.counters();
      if (after.cross_shard_checks == before.cross_shard_checks) {
        local_us.Add(us);
      } else if (after.fallback_walks != before.fallback_walks) {
        fallback_us.Add(us);
      } else {
        summary_us.Add(us);
      }
    }
    out.layer.Set("shard.local_check_p50_us", local_us.Median(), "us");
    out.layer.Set("shard.summary_check_p50_us", summary_us.Median(), "us");
    out.layer.Set("shard.fallback_check_p50_us", fallback_us.Median(), "us");
  }
  if (args.trace) {
    // The same state behind the thread-per-shard executor: a second
    // router built from the generated graph replays the acknowledged
    // writes, then serves one client's mix (checked like the serial one).
    sargus::SocialGraph threaded_graph(in->graph);
    sargus::ShardRouter threaded(threaded_graph, in->store, Options(true));
    sargus::Status s = threaded.Build();
    for (size_t i = 0; s.ok() && i < applied.size(); ++i) {
      s = ApplyRouterWrite(threaded, applied[i]);
    }
    if (!s.ok()) {
      out.ledger.Mismatch("threaded router replay: " + s.ToString());
    } else {
      RouterTarget threaded_target(&threaded);
      MixResult r = RunMixFor(threaded_target, pools, *in, out.ledger,
                              MixKind::kFull,
                              static_cast<int64_t>(0.1 * T * sec), 1, 5);
      VerifyLog(r, pools, audiences, out.ledger, 0, "threaded router");
      out.layer.Set("shard.threaded_check_p50_us", r.single_us.Median(), "us");
      out.layer.Set("shard.threaded_feed_batch_p50_us", r.feed_us.Median(),
                    "us");
    }
  }
  const sargus::RouterCounters c = router.counters();
  auto ratio = [](uint64_t a, uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  out.layer.Set("shard.cross_shard_share", ratio(c.cross_shard_checks, c.checks),
                "ratio");
  out.layer.Set("shard.summary_resolved_share",
                ratio(c.summary_resolved, c.cross_shard_checks), "ratio");
  out.layer.Set("shard.fallback_rounds_per_walk",
                ratio(c.fallback_rounds, c.fallback_walks), "count");

  // Summary refreshes rebuild every summary whatever changed; the first
  // catches up with the writes, the median is reported.
  Samples refresh_s;
  for (int i = 0; i < kRefreshes; ++i) {
    const int64_t r0 = NowNs();
    Span span("shard.refresh_summaries",
              Tracer::enabled() ? Tracer::NewRequest() : 0);
    out.ledger.Attempt();
    if (auto s = router.RefreshSummaries(); !s.ok()) {
      out.ledger.Fail("RefreshSummaries: " + s.ToString());
    }
    refresh_s.Add(static_cast<double>(NowNs() - r0) / 1e9);
  }
  out.e2e.Set("policy_refresh_p50_us", refresh_s.Median() * 1e6, "us");
  out.layer.Set("shard.summary_refresh_s", refresh_s.Median(), "s");

  // Restart of the shard tier from per-shard bundles: save each shard
  // engine, then reopen every shard (kReopenRounds times; the time of a
  // round is the sum over shards) and compare the first reopened
  // engines' decisions with the live shards'.
  double save_ms = 0;
  uint64_t bundle_bytes = 0;
  sargus::DurabilityOptions durability;
  durability.wal_sync = sargus::storage::WalSyncPolicy::kGroupCommit;
  std::vector<std::string> dirs;
  for (uint32_t i = 0; i < router.num_shards(); ++i) {
    dirs.push_back(args.work_dir + "/shard" + std::to_string(i));
    ResetDir(dirs.back());
    const int64_t t0 = NowNs();
    Span span("storage.enable_durability",
              Tracer::enabled() ? Tracer::NewRequest() : 0);
    out.ledger.Attempt();
    if (auto s = router.shard(i).engine().EnableDurability(dirs.back(),
                                                            durability);
        !s.ok()) {
      out.ledger.Fail("shard EnableDurability: " + s.ToString());
    }
    save_ms += static_cast<double>(NowNs() - t0) / 1e6;
    bundle_bytes += BundleBytes(dirs.back());
  }
  auto store = sargus::ClonePolicyStore(in->store);
  if (!store.ok()) {
    out.ledger.Mismatch("policy clone: " + store.status().ToString());
    return;
  }
  Samples round_s;
  const int64_t reopens_from = NowNs();
  for (int round = 0; round < kReopenRounds; ++round) {
    const int64_t due = reopens_from + round * kReopenPaceNs;
    if (NowNs() < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
    }
    double seconds = 0;
    for (uint32_t i = 0; i < router.num_shards(); ++i) {
      sargus::SocialGraph graph;
      const int64_t t0 = NowNs();
      auto opened = [&] {
        Span span("storage.open_from_dir",
                  Tracer::enabled() ? Tracer::NewRequest() : 0);
        return sargus::AccessControlEngine::OpenFromDir(dirs[i], &graph,
                                                        *store, {}, durability);
      }();
      seconds += static_cast<double>(NowNs() - t0) / 1e9;
      out.ledger.Attempt();
      if (!opened.ok()) {
        out.ledger.Fail("shard OpenFromDir: " + opened.status().ToString());
        continue;
      }
      if (round > 0) continue;
      sargus::AccessControlEngine& live = router.shard(i).engine();
      for (size_t k = 0; k < 512; ++k) {
        const sargus::AccessRequest& req = pools.singles[k];
        auto a = live.CheckAccess(req);
        auto b = (*opened)->CheckAccess(req);
        if (a.ok() != b.ok() || (a.ok() && a->granted != b->granted)) {
          out.ledger.Mismatch("reopened shard " + std::to_string(i) +
                              " differs from the live shard");
        }
      }
    }
    round_s.Add(seconds);
  }
  for (const std::string& dir : dirs) ResetDir(dir);
  const double recovery_s = round_s.Median();
  out.layer.Set("storage.recovery_ms", recovery_s * 1e3, "ms");
  out.e2e.Set("bundle_bytes", static_cast<double>(bundle_bytes), "bytes");
  out.layer.Set("storage.save_snapshot_ms", save_ms, "ms");
  out.layer.Set("storage.reopen_empty_tail_ms", recovery_s * 1e3, "ms");
  out.layer.Set("storage.bundle_bytes_per_edge",
                static_cast<double>(bundle_bytes) /
                    static_cast<double>(in->mirror.num_edges()),
                "bytes");
}

}  // namespace loadbench
