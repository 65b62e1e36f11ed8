// The closed-loop read mix and its checks, shared by every workload.
#ifndef LOADBENCH_READ_MIX_H_
#define LOADBENCH_READ_MIX_H_

#include <atomic>
#include <span>
#include <vector>

#include "engine/access_engine.h"
#include "inputs.h"
#include "shard/router.h"
#include "util.h"

namespace loadbench {

// A serving surface the mix drives: one engine's facade or the router.
class ReadTarget {
 public:
  virtual ~ReadTarget() = default;
  virtual sargus::Result<sargus::AccessDecision> Check(
      const sargus::AccessRequest& request) = 0;
  virtual std::vector<sargus::Result<sargus::AccessDecision>> CheckBatch(
      std::span<const sargus::AccessRequest> requests) = 0;
};

class EngineTarget : public ReadTarget {
 public:
  explicit EngineTarget(const sargus::AccessControlEngine* engine)
      : engine_(engine) {}
  sargus::Result<sargus::AccessDecision> Check(
      const sargus::AccessRequest& request) override;
  std::vector<sargus::Result<sargus::AccessDecision>> CheckBatch(
      std::span<const sargus::AccessRequest> requests) override;

 private:
  const sargus::AccessControlEngine* engine_;
};

class RouterTarget : public ReadTarget {
 public:
  explicit RouterTarget(const sargus::ShardRouter* router) : router_(router) {}
  sargus::Result<sargus::AccessDecision> Check(
      const sargus::AccessRequest& request) override;
  std::vector<sargus::Result<sargus::AccessDecision>> CheckBatch(
      std::span<const sargus::AccessRequest> requests) override;

 private:
  const sargus::ShardRouter* router_;
};

enum class MixKind {
  // 16 single checks, one feed batch, one fan-out batch per cycle.
  kFull,
  // Single checks only (the throughput runs).
  kSinglesOnly,
};

// Where a run's time windows start and how wide they are.
struct Windows {
  int64_t start_ns = 0;
  int64_t width_ns = 1;
};

struct MixResult {
  WindowedSamples single_us;
  WindowedSamples feed_us;
  WindowedSamples fanout_us;
  uint64_t singles = 0;
  uint64_t batches = 0;
  // What was answered, for checking after the run: (pool index, granted
  // per slot). Capped per thread.
  std::vector<std::pair<uint32_t, bool>> single_log;
  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> feed_log;
  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> fanout_log;

  void Merge(MixResult&& other);
};

// Runs the mix on the calling thread until `deadline_ns` (steady clock)
// or until `stop` turns true, filing latencies into `windows`. Every
// decision is checked on the spot for owner grants and non-decreasing
// stamps; errors count as failed ops.
MixResult RunMix(ReadTarget& target, const RequestPools& pools,
                 const Inputs& in, Ledger& ledger, MixKind kind,
                 int64_t deadline_ns, uint64_t start_offset, Windows windows,
                 const std::atomic<bool>* stop = nullptr);

// Runs the mix for `duration_ns`, split into `windows` time windows.
MixResult RunMixFor(ReadTarget& target, const RequestPools& pools,
                    const Inputs& in, Ledger& ledger, MixKind kind,
                    int64_t duration_ns, int windows, uint64_t start_offset);

// Runs `threads` copies of the mix concurrently and merges them.
MixResult RunMixThreads(ReadTarget& target, const RequestPools& pools,
                        const Inputs& in, Ledger& ledger, MixKind kind,
                        int threads, int64_t duration_ns, int windows);

// Reports the read figures: latency quantiles (pooled over the run) of
// `latency`, single checks per second of `throughput` (median over its
// windows) and the share of logged single checks that were granted. The
// medians are end-to-end metrics; the tails and the rate, too unsteady
// between runs on a shared VM for a bound, go to `layer` as load.*.
// Prints how far each quantile moved between time windows on stderr.
void ReportMix(const MixResult& latency, const MixResult& throughput,
               MetricTable& e2e, MetricTable& layer);

// Compares logged decisions with the reference matcher (against the
// mirror's current state). Audiences not yet cached are computed for at
// most `new_audiences` further resources; other entries are skipped.
void VerifyLog(const MixResult& log, const RequestPools& pools,
               AudienceCache& audiences, Ledger& ledger, size_t new_audiences,
               const char* where);

// Batch results equal per-request results on the same pinned view
// (except where the per-request join plan hits its work cap).
void VerifyBatchParity(const sargus::AccessReadView& view,
                       const RequestPools& pools, size_t batches,
                       Ledger& ledger, const char* where);

// Forcing each EvaluatorChoice on a pinned view gives the same grant.
// A forced join plan may refuse with kFailedPrecondition (reverse steps
// without backward line-graph orientations) or kResourceExhausted (work
// cap); those are skipped.
void VerifyForcedEvaluators(const sargus::AccessReadView& view,
                            const RequestPools& pools, size_t requests,
                            Ledger& ledger, const char* where);

}  // namespace loadbench

#endif  // LOADBENCH_READ_MIX_H_
