// Seeded inputs of the load benchmark: the social graph, the policy set,
// the popularity orders and the request pools. Everything is a pure
// function of the shape (which fixes the dataset seed) and the run seed.
#ifndef LOADBENCH_INPUTS_H_
#define LOADBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/access_engine.h"
#include "engine/policy.h"
#include "graph/social_graph.h"
#include "reference.h"

namespace loadbench {

struct Shape {
  // Seeds the graph, the policy set and the rules the policy rounds
  // add, fixed per workload; the run's --seed draws the traffic (request
  // pools and writes).
  uint64_t dataset_seed = 0;
  size_t nodes = 0;
  size_t edges_per_node = 4;
  size_t resources = 0;
  double zipf_theta = 0.99;
  size_t feed_batch = 50;
  size_t fanout_batch = 64;
  // Resources (by popularity rank) whose reference audience is computed
  // up front: they seed guided grants and are checked on every request.
  size_t audience_resources = 128;
  size_t single_pool = 1 << 16;
  // Large enough that a batch p99 rests on dozens of distinct batches.
  size_t batch_pool = 4096;
};

struct ResourceSpec {
  sargus::NodeId owner = 0;
  std::vector<std::string> paths;
  std::vector<RefExpr> exprs;
};

// The rule mix, one entry per resource in round-robin order over the
// resources' popularity ranks.
const std::vector<std::vector<std::string>>& RuleMix();

struct Inputs {
  Shape shape;
  // The generated graph as handed to the program (engines copy it).
  sargus::SocialGraph graph;
  sargus::PolicyStore store;
  // Index = ResourceId = popularity rank (0 is the hottest).
  std::vector<ResourceSpec> resources;
  // Users by activity rank: rank 0 is the best-connected node.
  std::vector<sargus::NodeId> user_rank;
  Mirror mirror;
};

// Generates a Barabasi-Albert graph with the three relationship labels
// and the age/trust attributes, registers the resources and rules, and
// mirrors both.
std::unique_ptr<Inputs> MakeInputs(const Shape& shape);

// Reference audiences of resources against the mirror's current state.
class AudienceCache {
 public:
  explicit AudienceCache(const Inputs* in) : in_(in) {}
  // Sorted audience of `resource` (union over its rule's paths).
  const std::vector<Node>& Get(sargus::ResourceId resource);
  bool Has(sargus::ResourceId resource) const {
    return cache_.contains(resource);
  }
  // Reference verdict of one request (owner access included).
  bool Grant(sargus::NodeId requester, sargus::ResourceId resource);
  // Drop everything (the mirror changed).
  void Clear() { cache_.clear(); }

 private:
  const Inputs* in_;
  std::unordered_map<sargus::ResourceId, std::vector<Node>> cache_;
};

inline sargus::AccessRequest Request(sargus::NodeId requester,
                                    sargus::ResourceId resource) {
  sargus::AccessRequest r;
  r.requester = requester;
  r.resource = resource;
  return r;
}

inline std::string Describe(const sargus::AccessRequest& r) {
  return "requester " + std::to_string(r.requester) + " resource " +
         std::to_string(r.resource);
}

struct Batch {
  std::vector<sargus::AccessRequest> requests;
};

// Request pools drawn from Zipf(theta) popularity over resources and
// users. Audience-known resources get half their requesters from their
// audience, so grants are common; 2% of single checks come from the
// resource's owner.
struct RequestPools {
  std::vector<sargus::AccessRequest> singles;
  std::vector<Batch> feeds;    // one requester x feed_batch resources
  std::vector<Batch> fanouts;  // one resource x fanout_batch requesters
};

RequestPools MakeRequestPools(const Inputs& in, AudienceCache& audiences,
                              uint64_t seed, size_t max_user);

}  // namespace loadbench

#endif  // LOADBENCH_INPUTS_H_
