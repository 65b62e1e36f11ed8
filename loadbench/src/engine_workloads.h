// The single-engine read flow, shared by feed-read and by the
// single-engine reference of sharded-feed.
#ifndef LOADBENCH_ENGINE_WORKLOADS_H_
#define LOADBENCH_ENGINE_WORKLOADS_H_

#include "inputs.h"
#include "workloads.h"

namespace loadbench {

// Set-up, latency and throughput runs of the read mix on one engine
// with default options, then idle writes, a write burst, policy rounds
// and a durability round trip.
void RunEngineFeed(const RunArgs& args, const Shape& shape, RunOutput& out);

}  // namespace loadbench

#endif  // LOADBENCH_ENGINE_WORKLOADS_H_
