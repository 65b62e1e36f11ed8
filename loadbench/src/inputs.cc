#include "inputs.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>

#include "synth/generators.h"
#include "util.h"

namespace loadbench {
namespace {

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "input generation failed: %s\n", what.c_str());
  std::exit(2);
}

// `n` Zipf ranks by systematic sampling: the i-th draw is the rank at
// cumulative share (i + u) / n for one random offset u, then the draws
// are shuffled. Every rank appears within one of its expected count, so
// the make-up of the traffic (and with it the share of costly requests
// behind a tail quantile) stays the same from seed to seed, while the
// seed still picks the order, the pairings and the rarest ranks.
std::vector<uint64_t> SystematicZipf(const sargus::ZipfSampler& zipf,
                                     size_t n, Rand& rng) {
  std::vector<uint64_t> out;
  out.reserve(n);
  const double u = static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
  uint64_t rank = 0;
  double cdf = zipf.Probability(0);
  for (size_t i = 0; i < n; ++i) {
    const double target = (static_cast<double>(i) + u) / static_cast<double>(n);
    while (cdf < target && rank + 1 < zipf.num_items()) {
      cdf += zipf.Probability(++rank);
    }
    out.push_back(rank);
  }
  for (size_t i = n; i > 1; --i) std::swap(out[i - 1], out[rng.Below(i)]);
  return out;
}

}  // namespace

const std::vector<std::vector<std::string>>& RuleMix() {
  // Single steps, multi-step, reverse-edge, attribute-filtered and a
  // two-path disjunction.
  static const std::vector<std::vector<std::string>> kMix = {
      {"friend[1]"},
      {"friend[1,2]"},
      {"friend[1,2]/colleague[1]"},
      {"friend-[1]/family[1]"},
      {"friend[1]{age>=18}"},
      {"colleague[1,2]{trust>=30}"},
      {"family[1]", "friend-[1,2]"},
      {"family[1,2]/friend[1]{age<40}"},
  };
  return kMix;
}

std::unique_ptr<Inputs> MakeInputs(const Shape& shape) {
  const uint64_t seed = shape.dataset_seed;
  auto in = std::make_unique<Inputs>();
  in->shape = shape;

  sargus::BarabasiAlbertSpec spec;
  spec.base.num_nodes = shape.nodes;
  spec.base.seed = MixSeed(seed, 1);
  spec.edges_per_node = shape.edges_per_node;
  auto graph = sargus::GenerateBarabasiAlbert(spec);
  if (!graph.ok()) Die(graph.status().ToString());
  in->graph = std::move(*graph);
  const sargus::SocialGraph& g = in->graph;

  // Mirror the generated graph: nodes, labelled edges, attributes.
  Mirror& m = in->mirror;
  m.AddNodes(g.NumNodes());
  for (size_t l = 0; l < g.labels().size(); ++l) {
    m.InternLabel(g.labels().ToString(static_cast<uint16_t>(l)));
  }
  for (sargus::EdgeId e = 0; e < g.EdgeSlotCount(); ++e) {
    if (!g.IsLiveEdge(e)) continue;
    const sargus::Edge& edge = g.edge(e);
    m.AddEdge(edge.src, edge.dst, edge.label);
  }
  for (size_t a = 0; a < g.attrs().size(); ++a) {
    const auto attr = static_cast<sargus::AttrId>(a);
    const std::string& name = g.attrs().ToString(static_cast<uint16_t>(a));
    for (sargus::NodeId v = 0; v < g.NumNodes(); ++v) {
      if (auto value = g.GetAttribute(v, attr)) m.SetAttr(v, name, *value);
    }
  }

  // Users by activity: best-connected first (ties by id).
  in->user_rank.resize(g.NumNodes());
  std::iota(in->user_rank.begin(), in->user_rank.end(), 0);
  std::stable_sort(in->user_rank.begin(), in->user_rank.end(),
                   [&](sargus::NodeId a, sargus::NodeId b) {
                     return m.OutDegree(a) > m.OutDegree(b);
                   });

  // Owners drawn uniformly; popularity follows the owner's degree, so
  // the hot set has the same make-up under every seed.
  Rand rng(MixSeed(seed, 2));
  std::vector<sargus::NodeId> owners(shape.resources);
  for (auto& o : owners) o = static_cast<sargus::NodeId>(rng.Below(g.NumNodes()));
  std::stable_sort(owners.begin(), owners.end(),
                   [&](sargus::NodeId a, sargus::NodeId b) {
                     return m.OutDegree(a) > m.OutDegree(b);
                   });
  const auto& mix = RuleMix();
  for (size_t r = 0; r < shape.resources; ++r) {
    ResourceSpec spec_r;
    spec_r.owner = owners[r];
    spec_r.paths = mix[r % mix.size()];
    for (const std::string& p : spec_r.paths) {
      RefExpr expr;
      std::string error;
      if (!ParseRefExpr(p, &expr, &error)) Die("reference parse: " + error);
      spec_r.exprs.push_back(std::move(expr));
    }
    const sargus::ResourceId id =
        in->store.RegisterResource(spec_r.owner, "res" + std::to_string(r));
    if (id != r) Die("resource ids are not dense");
    auto rule = in->store.AddRuleFromPaths(id, spec_r.paths);
    if (!rule.ok()) Die(rule.status().ToString());
    in->resources.push_back(std::move(spec_r));
  }
  return in;
}

const std::vector<Node>& AudienceCache::Get(sargus::ResourceId resource) {
  auto it = cache_.find(resource);
  if (it != cache_.end()) return it->second;
  const ResourceSpec& spec = in_->resources[resource];
  std::vector<Node> all;
  for (const RefExpr& expr : spec.exprs) {
    std::vector<Node> a = in_->mirror.Audience(expr, spec.owner);
    all.insert(all.end(), a.begin(), a.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return cache_.emplace(resource, std::move(all)).first->second;
}

bool AudienceCache::Grant(sargus::NodeId requester,
                          sargus::ResourceId resource) {
  if (in_->resources[resource].owner == requester) return true;
  const std::vector<Node>& a = Get(resource);
  return std::binary_search(a.begin(), a.end(), requester);
}

RequestPools MakeRequestPools(const Inputs& in, AudienceCache& audiences,
                              uint64_t seed, size_t max_user) {
  const Shape& s = in.shape;
  sargus::ZipfSampler res_zipf(s.resources, s.zipf_theta, MixSeed(seed, 3));
  sargus::ZipfSampler user_zipf(max_user, s.zipf_theta, MixSeed(seed, 4));
  Rand rng(MixSeed(seed, 5));
  const size_t known = std::min(s.audience_resources, s.resources);
  for (size_t r = 0; r < known; ++r) {
    audiences.Get(static_cast<sargus::ResourceId>(r));
  }
  auto user = [&] { return in.user_rank[user_zipf.Next()]; };
  // Half of an audience-known resource's requesters come from its
  // audience (grants); the rest are Zipf users (mostly denies).
  auto requester_for = [&](sargus::ResourceId r) -> sargus::NodeId {
    if (r < known && rng.Below(2) == 0) {
      const std::vector<Node>& a = audiences.Get(r);
      if (!a.empty()) {
        const Node v = a[rng.Below(a.size())];
        if (v < max_user) return v;
      }
    }
    return user();
  };

  RequestPools pools;
  pools.singles.reserve(s.single_pool);
  // Single checks and fan-out batches draw their resources by systematic
  // sampling; feed batches draw theirs one by one (each batch holds
  // distinct resources).
  const std::vector<uint64_t> single_resources =
      SystematicZipf(res_zipf, s.single_pool, rng);
  const std::vector<uint64_t> fanout_resources =
      SystematicZipf(res_zipf, s.batch_pool, rng);
  for (size_t i = 0; i < s.single_pool; ++i) {
    const auto r = static_cast<sargus::ResourceId>(single_resources[i]);
    sargus::AccessRequest req;
    req.resource = r;
    req.requester =
        rng.Below(50) == 0 ? in.resources[r].owner : requester_for(r);
    pools.singles.push_back(req);
  }
  // Feed batches' requesters by systematic sampling too: a feed batch's
  // cost follows its requester's degree.
  const std::vector<uint64_t> feed_users =
      SystematicZipf(user_zipf, s.batch_pool, rng);
  for (size_t b = 0; b < s.batch_pool; ++b) {
    Batch feed;
    const sargus::NodeId who = in.user_rank[feed_users[b]];
    std::vector<uint8_t> used(s.resources, 0);
    const size_t want = std::min(s.feed_batch, s.resources);
    for (size_t tries = 0; feed.requests.size() < want && tries < want * 64;
         ++tries) {
      const auto r = static_cast<sargus::ResourceId>(res_zipf.Next());
      if (used[r]) continue;
      used[r] = 1;
      feed.requests.push_back(Request(who, r));
    }
    pools.feeds.push_back(std::move(feed));

    Batch fanout;
    const auto r = static_cast<sargus::ResourceId>(fanout_resources[b]);
    for (size_t i = 0; i < s.fanout_batch; ++i) {
      fanout.requests.push_back(Request(requester_for(r), r));
    }
    pools.fanouts.push_back(std::move(fanout));
  }
  return pools;
}

}  // namespace loadbench
