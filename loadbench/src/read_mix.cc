#include "read_mix.h"

#include <cstdio>
#include <string>
#include <thread>

#include "query/eval_context.h"
#include "trace.h"

namespace loadbench {
namespace {

constexpr size_t kMaxSingleLog = 1 << 15;
constexpr size_t kMaxBatchLog = 256;
constexpr int kSinglesPerCycle = 16;

uint64_t RootRequest() {
  return Tracer::enabled() ? Tracer::NewRequest() : 0;
}

}  // namespace

sargus::Result<sargus::AccessDecision> EngineTarget::Check(
    const sargus::AccessRequest& request) {
  Span span("engine.check_access");
  return engine_->CheckAccess(request);
}

std::vector<sargus::Result<sargus::AccessDecision>> EngineTarget::CheckBatch(
    std::span<const sargus::AccessRequest> requests) {
  Span span("engine.check_access_batch");
  return engine_->CheckAccessBatch(requests);
}

sargus::Result<sargus::AccessDecision> RouterTarget::Check(
    const sargus::AccessRequest& request) {
  Span span("shard.check_access");
  return router_->CheckAccess(request);
}

std::vector<sargus::Result<sargus::AccessDecision>> RouterTarget::CheckBatch(
    std::span<const sargus::AccessRequest> requests) {
  Span span("shard.check_access_batch");
  return router_->CheckAccessBatch(requests);
}

void MixResult::Merge(MixResult&& other) {
  single_us.Append(other.single_us);
  feed_us.Append(other.feed_us);
  fanout_us.Append(other.fanout_us);
  singles += other.singles;
  batches += other.batches;
  single_log.insert(single_log.end(), other.single_log.begin(),
                    other.single_log.end());
  for (auto& e : other.feed_log) feed_log.push_back(std::move(e));
  for (auto& e : other.fanout_log) fanout_log.push_back(std::move(e));
}

MixResult RunMix(ReadTarget& target, const RequestPools& pools,
                 const Inputs& in, Ledger& ledger, MixKind kind,
                 int64_t deadline_ns, uint64_t start_offset, Windows windows,
                 const std::atomic<bool>* stop) {
  MixResult out;
  out.single_us = WindowedSamples(windows.start_ns, windows.width_ns);
  out.feed_us = WindowedSamples(windows.start_ns, windows.width_ns);
  out.fanout_us = WindowedSamples(windows.start_ns, windows.width_ns);
  StampPair last;
  uint64_t attempted = 0;
  auto note = [&](const sargus::AccessRequest& req,
                  const sargus::Result<sargus::AccessDecision>& d) -> int {
    if (!d.ok()) {
      ledger.Fail(Describe(req) + ": " + d.status().ToString());
      return -1;
    }
    const StampPair stamp{d->snapshot_generation, d->overlay_version};
    if (stamp < last) ledger.Mismatch("decision stamp went backwards");
    last = stamp;
    if (req.requester == in.resources[req.resource].owner && !d->granted) {
      ledger.Mismatch("owner denied: " + Describe(req));
    }
    return d->granted ? 1 : 0;
  };
  auto run_batch = [&](const std::vector<Batch>& pool, uint64_t i,
                       WindowedSamples& lat,
                       std::vector<std::pair<uint32_t, std::vector<uint8_t>>>&
                           log) {
    const uint32_t idx = static_cast<uint32_t>(i % pool.size());
    const auto& reqs = pool[idx].requests;
    const int64_t t0 = NowNs();
    std::vector<sargus::Result<sargus::AccessDecision>> res;
    {
      Span op("bench.op", RootRequest());
      res = target.CheckBatch(reqs);
    }
    lat.Add(t0, NsToUs(NowNs() - t0));
    ++attempted;
    ++out.batches;
    bool ok = res.size() == reqs.size();
    std::vector<uint8_t> granted(reqs.size(), 0);
    for (size_t s = 0; ok && s < res.size(); ++s) {
      const int g = note(reqs[s], res[s]);
      if (g < 0) ok = false;
      granted[s] = g > 0;
    }
    if (!ok) return;
    if (log.size() < kMaxBatchLog) log.emplace_back(idx, std::move(granted));
  };

  uint64_t cycle = start_offset;
  uint64_t single = start_offset * kSinglesPerCycle;
  while (NowNs() < deadline_ns &&
         (stop == nullptr || !stop->load(std::memory_order_relaxed))) {
    for (int k = 0; k < kSinglesPerCycle; ++k, ++single) {
      const uint32_t idx = static_cast<uint32_t>(single % pools.singles.size());
      const sargus::AccessRequest& req = pools.singles[idx];
      const int64_t t0 = NowNs();
      sargus::Result<sargus::AccessDecision> d = [&] {
        Span op("bench.op", RootRequest());
        return target.Check(req);
      }();
      out.single_us.Add(t0, NsToUs(NowNs() - t0));
      ++attempted;
      ++out.singles;
      const int g = note(req, d);
      if (g >= 0 && out.single_log.size() < kMaxSingleLog) {
        out.single_log.emplace_back(idx, g > 0);
      }
    }
    if (kind == MixKind::kFull) {
      run_batch(pools.feeds, cycle, out.feed_us, out.feed_log);
      run_batch(pools.fanouts, cycle, out.fanout_us, out.fanout_log);
    }
    ++cycle;
  }
  ledger.Attempt(attempted);
  return out;
}

MixResult RunMixFor(ReadTarget& target, const RequestPools& pools,
                    const Inputs& in, Ledger& ledger, MixKind kind,
                    int64_t duration_ns, int windows, uint64_t start_offset) {
  const int64_t start = NowNs();
  return RunMix(target, pools, in, ledger, kind, start + duration_ns,
                start_offset, {start, duration_ns / windows});
}

MixResult RunMixThreads(ReadTarget& target, const RequestPools& pools,
                        const Inputs& in, Ledger& ledger, MixKind kind,
                        int threads, int64_t duration_ns, int windows) {
  std::vector<MixResult> results(threads);
  const int64_t start = NowNs();
  const int64_t deadline = start + duration_ns;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      results[t] = RunMix(target, pools, in, ledger, kind, deadline,
                          static_cast<uint64_t>(t) * 997,
                          {start, duration_ns / windows});
    });
  }
  for (auto& w : workers) w.join();
  MixResult merged;
  for (auto& r : results) merged.Merge(std::move(r));
  return merged;
}

void ReportMix(const MixResult& latency, const MixResult& throughput,
               MetricTable& e2e, MetricTable& layer) {
  auto quantile = [&](MetricTable& table, const char* name,
                      const WindowedSamples& s, double q) {
    const auto [lo, hi] = s.WindowRange(q);
    const double v = s.Quantile(q);
    std::fprintf(stderr,
                 "%-24s %12.3f us over %zu samples; windows %.3f..%.3f\n",
                 name, v, s.size(), lo, hi);
    table.Set(name, v, "us");
  };
  quantile(e2e, "check_p50_us", latency.single_us, 0.5);
  quantile(layer, "load.check_p99_us", latency.single_us, 0.99);
  quantile(e2e, "feed_batch_p50_us", latency.feed_us, 0.5);
  quantile(layer, "load.feed_batch_p99_us", latency.feed_us, 0.99);
  quantile(e2e, "fanout_batch_p50_us", latency.fanout_us, 0.5);
  quantile(layer, "load.fanout_batch_p99_us", latency.fanout_us, 0.99);
  layer.Set("load.check_per_s", throughput.single_us.MedianRatePerSecond(),
            "1/s");
  size_t granted = 0;
  for (const auto& entry : latency.single_log) granted += entry.second;
  const double share =
      latency.single_log.empty()
          ? 0.0
          : static_cast<double>(granted) /
                static_cast<double>(latency.single_log.size());
  std::fprintf(stderr, "grant share of single checks: %.4f\n", share);
  layer.Set("query.grant_share", share, "ratio");
}

void VerifyLog(const MixResult& log, const RequestPools& pools,
               AudienceCache& audiences, Ledger& ledger, size_t new_audiences,
               const char* where) {
  auto known = [&](sargus::ResourceId r) {
    if (audiences.Has(r)) return true;
    if (new_audiences == 0) return false;
    --new_audiences;
    audiences.Get(r);
    return true;
  };
  auto check = [&](const sargus::AccessRequest& req, bool granted) {
    if (!known(req.resource)) return;
    if (audiences.Grant(req.requester, req.resource) != granted) {
      ledger.Mismatch(std::string(where) + ": reference disagrees on " +
                      Describe(req) + " (program " +
                      (granted ? "grant" : "deny") + ")");
    }
  };
  for (const auto& [idx, granted] : log.single_log) {
    check(pools.singles[idx], granted);
  }
  for (const auto& [idx, granted] : log.feed_log) {
    for (size_t s = 0; s < granted.size(); ++s) {
      check(pools.feeds[idx].requests[s], granted[s] != 0);
    }
  }
  for (const auto& [idx, granted] : log.fanout_log) {
    for (size_t s = 0; s < granted.size(); ++s) {
      check(pools.fanouts[idx].requests[s], granted[s] != 0);
    }
  }
}

void VerifyBatchParity(const sargus::AccessReadView& view,
                       const RequestPools& pools, size_t batches,
                       Ledger& ledger, const char* where) {
  sargus::EvalContext ctx;
  auto compare = [&](const Batch& b) {
    auto res = view.CheckAccessBatch(b.requests, ctx);
    for (size_t s = 0; s < b.requests.size(); ++s) {
      auto one = view.CheckAccess(b.requests[s], ctx);
      if (!one.ok() &&
          one.status().code() == sargus::StatusCode::kResourceExhausted) {
        continue;  // the documented batch/per-request divergence
      }
      if (one.ok() != res[s].ok() ||
          (one.ok() && one->granted != res[s]->granted)) {
        ledger.Mismatch(std::string(where) +
                        ": batch differs from per-request on " +
                        Describe(b.requests[s]));
      }
    }
  };
  for (size_t i = 0; i < batches && i < pools.feeds.size(); ++i) {
    compare(pools.feeds[i]);
    compare(pools.fanouts[i]);
  }
}

void VerifyForcedEvaluators(const sargus::AccessReadView& view,
                            const RequestPools& pools, size_t requests,
                            Ledger& ledger, const char* where) {
  using sargus::EvaluatorChoice;
  static constexpr EvaluatorChoice kChoices[] = {
      EvaluatorChoice::kAuto, EvaluatorChoice::kOnlineBfs,
      EvaluatorChoice::kOnlineDfs, EvaluatorChoice::kBidirectional,
      EvaluatorChoice::kJoinIndex};
  sargus::EvalContext ctx;
  const size_t stride = std::max<size_t>(1, pools.singles.size() / requests);
  for (size_t i = 0; i < pools.singles.size(); i += stride) {
    sargus::AccessRequest req = pools.singles[i];
    std::optional<bool> first;
    for (EvaluatorChoice c : kChoices) {
      req.evaluator_override = c;
      auto d = view.CheckAccess(req, ctx);
      if (!d.ok()) {
        const auto code = d.status().code();
        if (c == EvaluatorChoice::kJoinIndex &&
            (code == sargus::StatusCode::kFailedPrecondition ||
             code == sargus::StatusCode::kResourceExhausted)) {
          continue;
        }
        ledger.Mismatch(std::string(where) + ": forced evaluator failed on " +
                        Describe(req) + ": " + d.status().ToString());
        continue;
      }
      if (!first) first = d->granted;
      if (*first != d->granted) {
        ledger.Mismatch(std::string(where) + ": evaluators disagree on " +
                        Describe(req));
      }
    }
  }
}

}  // namespace loadbench
