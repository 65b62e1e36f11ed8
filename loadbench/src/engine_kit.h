// Pieces the engine and router workloads share: the write chooser over
// the mirror, engine set-up, the closed-loop write burst, policy rounds,
// durability round trips and the per-layer engine probes.
#ifndef LOADBENCH_ENGINE_KIT_H_
#define LOADBENCH_ENGINE_KIT_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "engine/access_engine.h"
#include "inputs.h"
#include "read_mix.h"
#include "util.h"

namespace loadbench {

struct EdgeOp {
  enum class Kind : uint8_t { kAdd, kRemove, kAddNode };
  Kind kind = Kind::kAdd;
  Node src = 0;
  Node dst = 0;
  uint16_t label = 0;
};

// Draws writes that are valid against the mirror (adds of absent edges,
// removals of live ones) and applies each to the mirror as it is drawn.
// Callers submit in draw order, so the mirror is the state every
// acknowledged write leads to.
class WriteChooser {
 public:
  // Writes touch nodes in [user_floor, user_limit) only.
  WriteChooser(Mirror* mirror, uint64_t seed, size_t user_limit,
               size_t user_floor = 0)
      : mirror_(mirror),
        rng_(seed),
        user_limit_(user_limit),
        user_floor_(user_floor) {}
  // 55% adds, 45% removals; add_only for overlay-growing series.
  EdgeOp Next(bool add_only = false);
  // Alternately adds a fresh edge and removes the edge it just added,
  // so the staged overlay stays near empty however many writes run.
  EdgeOp NextTransient();
  EdgeOp NextNode();
  // Reverts a drawn write whose acknowledgement failed.
  void Undo(const EdgeOp& op);
  // Every edge any drawn write touched.
  const std::vector<MirrorEdge>& touched() const { return touched_; }

 private:
  void Touch(const EdgeOp& op);

  Mirror* mirror_;
  Rand rng_;
  size_t user_limit_;
  size_t user_floor_;
  std::vector<MirrorEdge> touched_;
  std::unordered_set<uint64_t> touched_keys_;
  std::optional<EdgeOp> pending_removal_;
};

sargus::WriteTicket SubmitOp(sargus::AccessControlEngine& engine,
                             const EdgeOp& op);

// An engine together with the graph it serves (and writes when folding).
struct EngineBox {
  std::unique_ptr<sargus::SocialGraph> graph;
  std::unique_ptr<sargus::AccessControlEngine> engine;
};

// Builds `reps` engines from copies of the generated graph, timing each
// from construction until its first view can serve (plus durability
// when `durable_dir` is set). Keeps the last one.
EngineBox SetupEngines(const Inputs& in, int reps,
                       const std::string& durable_dir, Samples& setup_s,
                       Samples& rebuild_s);

enum class WriteKind { kMixed, kAddOnly, kTransient };

// `producers` threads submit `ops` writes in total, each keeping at most
// `window` tickets in flight and waiting them in order. Returns
// acknowledged writes per second; files each write's time from submit
// to its producer seeing the ack into `ack_us` when given.
double RunWriteBurst(sargus::AccessControlEngine& engine,
                     WriteChooser& chooser, std::mutex& chooser_mu,
                     size_t ops, int producers, size_t window, Ledger& ledger,
                     WriteKind kind = WriteKind::kMixed,
                     Samples* ack_us = nullptr);

// `rounds` times, one round at most every `pace_ns`: quiesce the writer,
// register a new resource with a rule from the mix and RefreshPolicies;
// then check the new rules.
void RunPolicyRounds(sargus::AccessControlEngine& engine, Inputs& in,
                     int rounds, int64_t pace_ns, uint64_t seed,
                     Samples& refresh_us,
                     Samples& rule_add_us, Ledger& ledger);

// After a reopen: every write the chooser drew is visible (probed with
// one-hop rules), and sampled decisions equal the reference's.
void VerifyRecovered(sargus::AccessControlEngine& engine,
                     sargus::PolicyStore& store, const WriteChooser& chooser,
                     const Inputs& in, const RequestPools& pools,
                     Ledger& ledger);

// Total size of the snapshot bundle files in `dir` (the WAL excluded).
uint64_t BundleBytes(const std::string& dir);
void ResetDir(const std::string& dir);

// Per-layer probes on a quiescent engine (traced runs): view acquire,
// facade vs pinned checks, evaluator shares, batch vs loop.
void MeasureEngineLayers(const sargus::AccessControlEngine& engine,
                         const RequestPools& pools, MetricTable& layer);

// The overlay's staged-entry count as of the current view.
size_t OverlayEntries(const sargus::AccessControlEngine& engine);

}  // namespace loadbench

#endif  // LOADBENCH_ENGINE_KIT_H_
