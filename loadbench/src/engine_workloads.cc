// feed-read and social-churn: one AccessControlEngine each.
#include <cmath>
#include <condition_variable>
#include <deque>
#include <thread>

#include "engine_kit.h"
#include "engine_workloads.h"
#include "shard/shard_engine.h"
#include "trace.h"

namespace loadbench {
namespace {

constexpr int kSetupReps = 3;
constexpr int kWindows = 10;
constexpr int kBursts = 9;
// social-churn's bursts are short (~0.4 s each) and each holds a
// different share of compaction: more of them for a steady median.
constexpr int kChurnBursts = 9;
constexpr size_t kBurstOps = 16384;
constexpr int kPolicyRounds = 48;
// Policy rounds start at most this often. A refresh's cost drifts over
// seconds on a shared machine; rounds spread over a few seconds give a
// median of several of those stretches rather than of one.
constexpr int64_t kPolicyPaceNs = 50'000'000;

sargus::DurabilityOptions GroupCommit() {
  sargus::DurabilityOptions d;
  d.wal_sync = sargus::storage::WalSyncPolicy::kGroupCommit;
  return d;
}

// Decisions of a quiescent engine against the reference on the mirror's
// current state: the Zipf head's requests, audiences computed afresh.
void VerifyQuiescent(const sargus::AccessControlEngine& engine,
                     const Inputs& in, const RequestPools& pools,
                     size_t head_resources, Ledger& ledger,
                     const char* where) {
  AudienceCache audiences(&in);
  auto view = engine.AcquireReadView();
  size_t checked = 0;
  for (size_t i = 0; i < pools.singles.size() && checked < 8192; ++i) {
    const sargus::AccessRequest& req = pools.singles[i];
    if (req.resource >= head_resources) continue;
    ++checked;
    auto d = view->CheckAccess(req);
    if (!d.ok() || d->granted != audiences.Grant(req.requester, req.resource)) {
      ledger.Mismatch(std::string(where) + ": reference disagrees on " +
                      Describe(req));
    }
  }
  VerifyBatchParity(*view, pools, 64, ledger, where);
  VerifyForcedEvaluators(*view, pools, 256, ledger, where);
}

// Tracing overhead: the same single-thread mix untraced, then traced.
void MeasureTraceOverhead(ReadTarget& target, const RequestPools& pools,
                          const Inputs& in, double seconds,
                          MetricTable& layer) {
  Ledger scratch;
  const int64_t span_ns = static_cast<int64_t>(seconds * 1e9);
  double per_op[2] = {0, 0};
  for (int traced = 0; traced < 2; ++traced) {
    Tracer::Enable(traced == 1);
    MixResult r = RunMixFor(target, pools, in, scratch, MixKind::kFull,
                            span_ns, 1, 0);
    per_op[traced] = (r.single_us.Sum() + r.feed_us.Sum() + r.fanout_us.Sum()) /
                     static_cast<double>(r.singles + r.batches);
  }
  Tracer::Enable(true);
  layer.Set("trace.overhead_pct", 100.0 * (per_op[1] - per_op[0]) / per_op[0],
            "%");
}

struct RecoveryFigures {
  double recovery_s = 0;
  double reopen_empty_ms = 0;
  double save_ms = 0;
  double wal_bytes_per_write = 0;
  uint64_t bundle_bytes = 0;
};

constexpr int kReopens = 7;
// Reopens start at most this often, for the reason policy rounds are
// paced.
constexpr int64_t kReopenPaceNs = 50'000'000;

// The engine in `box` is durable in `dir` with an empty WAL. Writes a
// WAL tail, closes, and reopens kReopens times (each replays the same
// tail); reopens once more to check the result; then saves, and reopens
// kReopens times with nothing to replay. Times are medians.
RecoveryFigures DurabilityRoundTrip(EngineBox& box, const std::string& dir,
                                    Inputs& in, WriteChooser& chooser,
                                    std::mutex& chooser_mu,
                                    const RequestPools& pools,
                                    size_t tail_ops, Ledger& ledger) {
  RecoveryFigures f;
  RunWriteBurst(*box.engine, chooser, chooser_mu, tail_ops, 1, 64, ledger);
  box.engine->FlushWrites();
  box.engine->WaitForCompaction();
  f.wal_bytes_per_write = static_cast<double>(box.engine->wal_size_bytes()) /
                          static_cast<double>(tail_ops);
  box.engine.reset();

  auto cloned = sargus::ClonePolicyStore(in.store);
  auto probe_cloned = sargus::ClonePolicyStore(in.store);
  if (!cloned.ok() || !probe_cloned.ok()) {
    ledger.Mismatch("policy clone failed");
    return f;
  }
  // Stores must outlive the engines that read them. The checked reopen
  // gets its own, since the check registers probe rules.
  sargus::PolicyStore store = std::move(*cloned);
  sargus::PolicyStore probe_store = std::move(*probe_cloned);
  int64_t next_reopen = NowNs();
  auto reopen = [&](EngineBox& into, sargus::PolicyStore& with,
                    Samples& seconds) {
    into = EngineBox{};
    into.graph = std::make_unique<sargus::SocialGraph>();
    if (NowNs() < next_reopen) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(next_reopen - NowNs()));
    }
    next_reopen = NowNs() + kReopenPaceNs;
    const int64_t t0 = NowNs();
    sargus::Result<std::unique_ptr<sargus::AccessControlEngine>> opened =
        [&] {
          Span span("storage.open_from_dir",
                    Tracer::enabled() ? Tracer::NewRequest() : 0);
          return sargus::AccessControlEngine::OpenFromDir(
              dir, into.graph.get(), with, {}, GroupCommit());
        }();
    seconds.Add(static_cast<double>(NowNs() - t0) / 1e9);
    ledger.Attempt();
    if (!opened.ok()) {
      ledger.Fail("OpenFromDir: " + opened.status().ToString());
      return false;
    }
    into.engine = std::move(*opened);
    return true;
  };

  Samples with_tail;
  for (int i = 0; i < kReopens; ++i) {
    EngineBox e;
    if (!reopen(e, store, with_tail)) return f;
  }
  Samples unused;
  EngineBox reopened;
  if (!reopen(reopened, probe_store, unused)) return f;
  VerifyRecovered(*reopened.engine, probe_store, chooser, in, pools, ledger);
  f.recovery_s = with_tail.Median();

  const int64_t t0 = NowNs();
  sargus::Status saved;
  {
    Span span("storage.save_snapshot",
              Tracer::enabled() ? Tracer::NewRequest() : 0);
    saved = reopened.engine->SaveSnapshot();
  }
  f.save_ms = static_cast<double>(NowNs() - t0) / 1e6;
  ledger.Attempt();
  if (!saved.ok()) ledger.Fail("SaveSnapshot: " + saved.ToString());
  f.bundle_bytes = BundleBytes(dir);
  reopened = EngineBox{};

  Samples empty_tail;
  for (int i = 0; i < kReopens; ++i) {
    EngineBox e;
    if (!reopen(e, store, empty_tail)) break;
  }
  f.reopen_empty_ms = empty_tail.Median() * 1e3;
  return f;
}

void ReportRecovery(const RecoveryFigures& f, size_t edges, RunOutput& out) {
  out.layer.Set("storage.recovery_ms", f.recovery_s * 1e3, "ms");
  out.e2e.Set("bundle_bytes", static_cast<double>(f.bundle_bytes), "bytes");
  out.layer.Set("storage.save_snapshot_ms", f.save_ms, "ms");
  out.layer.Set("storage.reopen_empty_tail_ms", f.reopen_empty_ms, "ms");
  out.layer.Set("storage.wal_replay_ms",
                f.recovery_s * 1e3 - f.reopen_empty_ms, "ms");
  out.layer.Set("storage.wal_bytes_per_write", f.wal_bytes_per_write, "bytes");
  out.layer.Set("storage.bundle_bytes_per_edge",
                static_cast<double>(f.bundle_bytes) / static_cast<double>(edges),
                "bytes");
}

void ReportWriteQueue(sargus::AccessControlEngine& engine, RunOutput& out) {
  const sargus::WriteQueueStats q = engine.write_queue().stats();
  out.layer.Set("engine.write_queue.ops_per_batch",
                q.batches == 0 ? 0.0
                               : static_cast<double>(q.applied) /
                                     static_cast<double>(q.batches),
                "count");
  out.layer.Set("engine.write_queue.max_batch",
                static_cast<double>(q.max_batch_seen), "count");
}

}  // namespace

void RunEngineFeed(const RunArgs& args, const Shape& shape, RunOutput& out) {
  const double T = args.seconds;
  const int64_t sec = 1'000'000'000;
  auto in = MakeInputs(shape);
  Samples setup_s;
  Samples rebuild_s;
  EngineBox box = SetupEngines(*in, kSetupReps, "", setup_s, rebuild_s);
  out.e2e.Set("setup_s", setup_s.Median(), "s");
  out.layer.Set("index.rebuild_s", rebuild_s.Median(), "s");

  AudienceCache audiences(in.get());
  const RequestPools pools =
      MakeRequestPools(*in, audiences, args.seed, shape.nodes);
  EngineTarget target(box.engine.get());

  // Warm up, then the latency run (one client, full mix) and the
  // throughput run (nproc clients, single checks). The write queue,
  // overlay, storage and shard modules stay idle throughout.
  RunMixFor(target, pools, *in, out.ledger, MixKind::kFull,
            static_cast<int64_t>(0.05 * T * sec), 1, 0);
  MixResult latency =
      RunMixFor(target, pools, *in, out.ledger, MixKind::kFull,
                static_cast<int64_t>(0.5 * T * sec), kWindows, 7);
  const int clients = static_cast<int>(
      std::max(1u, std::min(4u, std::thread::hardware_concurrency())));
  MixResult throughput =
      RunMixThreads(target, pools, *in, out.ledger, MixKind::kSinglesOnly,
                    clients, static_cast<int64_t>(0.4 * T * sec), kWindows);
  ReportMix(latency, throughput, out.e2e, out.layer);
  VerifyLog(latency, pools, audiences, out.ledger, 64, "feed latency run");
  VerifyLog(throughput, pools, audiences, out.ledger, 0,
            "feed throughput run");
  {
    auto view = box.engine->AcquireReadView();
    VerifyBatchParity(*view, pools, 64, out.ledger, "feed");
    VerifyForcedEvaluators(*view, pools, 256, out.ledger, "feed");
  }
  if (args.trace) {
    MeasureEngineLayers(*box.engine, pools, out.layer);
    MeasureTraceOverhead(target, pools, *in, 0.05 * T, out.layer);
  }

  // After the read window: write bursts, policy rounds and
  // a durability round trip on the same engine. The writes add edges and
  // take them back, so the staged overlay stays near empty: this tail
  // times writes on a large graph, and social-churn owns the growing
  // overlay.
  std::mutex chooser_mu;
  WriteChooser chooser(&in->mirror, MixSeed(args.seed, 11), shape.nodes);
  // Write bursts: their acks give the write figures. Spaced out one at a
  // time, each synchronous write would be one hand-off to the write
  // queue's thread and back, and on a shared VM the p99 of such a
  // ~20 us round trip is set by the machine (a bare two-thread
  // condition-variable ping-pong's p99 moves between 41 and 78 us from
  // one second to the next); with 64-ticket windows an ack waits on the
  // write path's own batches instead.
  Samples ack_us;
  Samples burst;
  for (int b = 0; b < kBursts; ++b) {
    burst.Add(RunWriteBurst(*box.engine, chooser, chooser_mu, kBurstOps, 2,
                            64, out.ledger, WriteKind::kTransient, &ack_us));
  }
  out.layer.Set("load.write_ack_p50_us", ack_us.Median(), "us");
  out.layer.Set("load.write_ack_p99_us", ack_us.Quantile(0.99), "us");
  out.layer.Set("load.write_burst_per_s", burst.Median(), "1/s");
  Samples refresh_us;
  Samples rule_add_us;
  RunPolicyRounds(*box.engine, *in, kPolicyRounds, kPolicyPaceNs,
                  MixSeed(shape.dataset_seed, 12), refresh_us, rule_add_us,
                  out.ledger);
  out.e2e.Set("policy_refresh_p50_us", refresh_us.Median(), "us");
  out.layer.Set("engine.refresh_policies_us", refresh_us.Median(), "us");
  out.layer.Set("core.rule_add_us", rule_add_us.Median(), "us");
  ReportWriteQueue(*box.engine, out);
  VerifyQuiescent(*box.engine, *in, pools, 16, out.ledger, "feed after writes");

  const std::string dir = args.work_dir + "/feed-durable";
  ResetDir(dir);
  if (auto s = box.engine->EnableDurability(dir, GroupCommit()); !s.ok()) {
    out.ledger.Fail("EnableDurability: " + s.ToString());
    return;
  }
  const RecoveryFigures f = DurabilityRoundTrip(
      box, dir, *in, chooser, chooser_mu, pools, 1024, out.ledger);
  ReportRecovery(f, in->mirror.num_edges(), out);
  ResetDir(dir);
}

void RunFeedRead(const RunArgs& args, RunOutput& out) {
  Shape shape;
  shape.dataset_seed = 20120326;
  shape.nodes = 262144;
  shape.resources = 16384;
  RunEngineFeed(args, shape, out);
}

void RunSocialChurn(const RunArgs& args, RunOutput& out) {
  const double T = args.seconds;
  const int64_t sec = 1'000'000'000;
  Shape shape;
  shape.dataset_seed = 20120327;
  shape.nodes = 16384;
  shape.resources = 2048;
  shape.audience_resources = 64;
  auto in = MakeInputs(shape);
  const Mirror initial_mirror = in->mirror;  // for the traced twin
  const std::string dir = args.work_dir + "/churn-durable";
  Samples setup_s;
  Samples rebuild_s;
  // A small engine sets up in ~0.1 s: more repetitions for a steady median.
  EngineBox box = SetupEngines(*in, 11, dir, setup_s, rebuild_s);
  sargus::AccessControlEngine& engine = *box.engine;
  out.e2e.Set("setup_s", setup_s.Median(), "s");
  out.layer.Set("index.rebuild_s", rebuild_s.Median(), "s");

  AudienceCache audiences(in.get());
  const RequestPools pools =
      MakeRequestPools(*in, audiences, args.seed, shape.nodes);
  EngineTarget target(&engine);
  std::mutex chooser_mu;
  WriteChooser chooser(&in->mirror, MixSeed(args.seed, 11), shape.nodes);

  // Open-loop stream: writes due at a fixed rate, each timed from when
  // it was due; one AddNode in 256. A completer thread waits the
  // tickets in order. A closed-loop reader runs the mix beside it.
  constexpr double kRate = 4000;  // writes per second
  const size_t stream_ops = static_cast<size_t>(std::llround(kRate * 0.9 * T));
  struct Pending {
    sargus::WriteTicket ticket;
    EdgeOp op;
    int64_t due;
  };
  std::mutex q_mu;
  std::condition_variable q_cv;
  std::deque<Pending> queue;
  bool producer_done = false;
  Samples ack_us;
  Samples late_us;
  Samples submit_ns;
  Samples overlay_entries;
  std::atomic<bool> stop_readers{false};

  std::thread completer([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(q_mu);
        q_cv.wait(lock, [&] { return !queue.empty() || producer_done; });
        if (queue.empty()) return;
        p = std::move(queue.front());
        queue.pop_front();
      }
      sargus::WriteOutcome o;
      {
        Span span("engine.ticket_wait",
                  Tracer::enabled() ? Tracer::NewRequest() : 0);
        o = p.ticket.Wait();
      }
      ack_us.Add(NsToUs(NowNs() - p.due));
      if (!o.status.ok()) {
        out.ledger.Fail("stream write: " + o.status.ToString());
        std::lock_guard<std::mutex> lock(chooser_mu);
        chooser.Undo(p.op);
        continue;
      }
      if (p.op.kind == EdgeOp::Kind::kAddNode && o.node != p.op.src) {
        out.ledger.Mismatch("AddNode returned " + std::to_string(o.node) +
                            ", the mirror expected " +
                            std::to_string(p.op.src));
      }
      // A view acquired after the ack is at least as new as the ticket.
      auto view = engine.AcquireReadView();
      const StampPair ticket{o.generation, o.overlay_version};
      const StampPair seen{view->snapshot_generation(),
                           view->overlay_version()};
      if (seen < ticket) out.ledger.Mismatch("view older than an acked ticket");
      if (args.trace) {
        overlay_entries.Add(static_cast<double>(view->overlay().size()));
      }
    }
  });
  std::thread mix_reader;
  MixResult mix;
  const int64_t start = NowNs();
  // One window: every stretch of the stream holds a different share of
  // compaction, so the stream's figures are pooled over all of it.
  const Windows windows{start, static_cast<int64_t>(0.9 * T * sec) + sec};
  mix_reader = std::thread([&] {
    mix = RunMix(target, pools, *in, out.ledger, MixKind::kFull, INT64_MAX, 3,
                 windows, &stop_readers);
  });

  for (size_t i = 0; i < stream_ops; ++i) {
    const int64_t due =
        start + static_cast<int64_t>(static_cast<double>(i) * 1e9 / kRate);
    const int64_t now = NowNs();
    if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    Span root("bench.write", Tracer::enabled() ? Tracer::NewRequest() : 0);
    const int64_t t0 = NowNs();
    late_us.Add(NsToUs(std::max<int64_t>(0, t0 - due)));
    EdgeOp op;
    sargus::WriteTicket ticket;
    {
      std::lock_guard<std::mutex> lock(chooser_mu);
      op = i % 256 == 255 ? chooser.NextNode() : chooser.Next();
      const int64_t s0 = NowNs();
      ticket = SubmitOp(engine, op);
      submit_ns.Add(static_cast<double>(NowNs() - s0));
    }
    {
      std::lock_guard<std::mutex> lock(q_mu);
      queue.push_back({std::move(ticket), op, due});
    }
    q_cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(q_mu);
    producer_done = true;
  }
  q_cv.notify_one();
  completer.join();
  stop_readers = true;
  mix_reader.join();
  out.ledger.Attempt(stream_ops);

  // One reader keeps the busy threads (reader, queue writer, compaction)
  // within four cores; its single checks per second are the rate.
  ReportMix(mix, mix, out.e2e, out.layer);
  out.layer.Set("load.check_per_s",
              static_cast<double>(mix.singles) /
                  (static_cast<double>(NowNs() - start) / 1e9),
              "1/s");
  out.layer.Set("load.write_ack_p50_us", ack_us.Median(), "us");
  out.layer.Set("load.write_ack_p99_us", ack_us.Quantile(0.99), "us");
  out.layer.Set("load.generator_late_p99_us", late_us.Quantile(0.99), "us");
  out.layer.Set("engine.submit_p99_ns", submit_ns.Quantile(0.99), "ns");
  out.layer.Set("graph.overlay_entries_p50", overlay_entries.Median(), "count");
  out.layer.Set("graph.overlay_entries_max", overlay_entries.Max(), "count");

  // Each burst and the policy rounds start from a folded overlay, so
  // what they pay for publishing does not hang on where the stream left
  // the compaction cycle.
  auto fold = [&] {
    engine.FlushWrites();
    engine.WaitForCompaction();
    if (auto s = engine.Compact(); !s.ok()) {
      out.ledger.Fail("Compact: " + s.ToString());
    }
    engine.WaitForCompaction();
  };
  Samples burst;
  for (int b = 0; b < kChurnBursts; ++b) {
    fold();
    burst.Add(RunWriteBurst(engine, chooser, chooser_mu, kBurstOps, 2, 128,
                            out.ledger));
  }
  out.layer.Set("load.write_burst_per_s", burst.Median(), "1/s");
  fold();
  Samples refresh_us;
  Samples rule_add_us;
  RunPolicyRounds(engine, *in, kPolicyRounds, kPolicyPaceNs,
                  MixSeed(shape.dataset_seed, 12), refresh_us, rule_add_us,
                  out.ledger);
  out.e2e.Set("policy_refresh_p50_us", refresh_us.Median(), "us");
  out.layer.Set("engine.refresh_policies_us", refresh_us.Median(), "us");
  out.layer.Set("core.rule_add_us", rule_add_us.Median(), "us");

  engine.FlushWrites();
  engine.WaitForCompaction();
  VerifyQuiescent(engine, *in, pools, 64, out.ledger, "churn final state");
  ReportWriteQueue(engine, out);
  out.layer.Set("index.compactions_full",
                static_cast<double>(engine.full_compactions()), "count");
  out.layer.Set("index.compactions_incremental",
                static_cast<double>(engine.incremental_compactions()), "count");
  out.layer.Set("storage.records_per_sync",
                static_cast<double>(engine.wal_append_count()) /
                    static_cast<double>(std::max<uint64_t>(
                        1, engine.wal_sync_count())),
                "count");
  if (args.trace) {
    MeasureEngineLayers(engine, pools, out.layer);
    MeasureTraceOverhead(target, pools, *in, 0.05 * T, out.layer);
  }

  // Fold the overlay (the bundle is re-saved and the WAL truncated),
  // then the durability round trip.
  const int64_t c0 = NowNs();
  {
    Span span("index.compact", Tracer::enabled() ? Tracer::NewRequest() : 0);
    if (auto s = engine.Compact(); !s.ok()) {
      out.ledger.Fail("Compact: " + s.ToString());
    }
    engine.WaitForCompaction();
  }
  out.layer.Set("index.compact_ms", static_cast<double>(NowNs() - c0) / 1e6,
                "ms");
  const RecoveryFigures f = DurabilityRoundTrip(
      box, dir, *in, chooser, chooser_mu, pools, 1024, out.ledger);
  ReportRecovery(f, in->mirror.num_edges(), out);
  ResetDir(dir);

  if (args.trace) {
    // The publish cliff: an idle synchronous AddEdge at growing staged
    // overlay sizes, on a non-durable twin so no fsync hides it.
    Samples twin_setup;
    Samples twin_rebuild;
    EngineBox twin = SetupEngines(*in, 1, "", twin_setup, twin_rebuild);
    Mirror twin_mirror = initial_mirror;
    WriteChooser twin_chooser(&twin_mirror, MixSeed(args.seed, 13),
                              shape.nodes);
    std::mutex twin_mu;
    const size_t threshold = twin.engine->effective_compact_threshold();
    const std::pair<const char*, size_t> points[] = {
        {"engine.sync_write_us.overlay_256", 256},
        {"engine.sync_write_us.overlay_1k", 1024},
        {"engine.sync_write_us.overlay_4k", 4096},
        {"engine.sync_write_us.overlay_threshold", threshold - 32}};
    Ledger twin_ledger;
    for (const auto& [name, staged] : points) {
      twin.engine->Compact();
      twin.engine->WaitForCompaction();
      RunWriteBurst(*twin.engine, twin_chooser, twin_mu, staged - 16, 1, 256,
                    twin_ledger, WriteKind::kAddOnly);
      twin.engine->FlushWrites();
      Samples sync_us;
      for (int i = 0; i < 16; ++i) {
        const EdgeOp op = twin_chooser.Next(/*add_only=*/true);
        const int64_t t0 = NowNs();
        sargus::WriteOutcome o = SubmitOp(*twin.engine, op).Wait();
        sync_us.Add(NsToUs(NowNs() - t0));
        if (!o.status.ok()) twin_ledger.Fail(o.status.ToString());
      }
      out.layer.Set(name, sync_us.Median(), "us");
    }
    if (twin_ledger.failed() > 0) {
      out.ledger.Mismatch("publish-cliff series had failed writes");
    }
  }
}

}  // namespace loadbench
