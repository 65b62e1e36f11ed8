// The benchmark's workloads and what they hand back.
#ifndef LOADBENCH_WORKLOADS_H_
#define LOADBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "util.h"

namespace loadbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // sharded-feed only: serve the same inputs from one engine instead of
  // the router (the reference figure in the README; no bound covers it).
  bool single_engine = false;
  // Scratch directory for bundles, WALs and trace files.
  std::string work_dir;
};

struct RunOutput {
  MetricTable e2e;
  MetricTable layer;
  Ledger ledger;
};

void RunFeedRead(const RunArgs& args, RunOutput& out);
void RunSocialChurn(const RunArgs& args, RunOutput& out);
void RunShardedFeed(const RunArgs& args, RunOutput& out);

}  // namespace loadbench

#endif  // LOADBENCH_WORKLOADS_H_
