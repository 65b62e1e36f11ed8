// Reference matcher for the load benchmark.
//
// Written from docs/QUERY_SEMANTICS.md alone: its own expression parser,
// its own edge-list/attribute mirror and a plain (node, step, hops)
// breadth-first search. It never reads sargus' CSR, indexes or overlay,
// so agreement with it is evidence about the program, not about itself.
#ifndef LOADBENCH_REFERENCE_H_
#define LOADBENCH_REFERENCE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace loadbench {

using Node = uint32_t;

struct RefCond {
  enum class Op { kLt, kLe, kGt, kGe, kEq, kNe };
  std::string attr;
  Op op = Op::kEq;
  int64_t value = 0;
};

struct RefStep {
  std::string label;
  bool backward = false;
  int min_hops = 1;
  int max_hops = 1;
  std::vector<RefCond> conds;
};

struct RefExpr {
  std::vector<RefStep> steps;
};

// Parses the grammar of QUERY_SEMANTICS.md. Returns false (with a
// message) on any syntax or bound error.
bool ParseRefExpr(std::string_view text, RefExpr* out, std::string* error);

struct MirrorEdge {
  Node src = 0;
  Node dst = 0;
  uint16_t label = 0;
  bool operator==(const MirrorEdge&) const = default;
};

// The benchmark's own copy of the logical graph: live edges by label in
// both directions plus attribute columns. Updated with every
// acknowledged write.
class Mirror {
 public:
  uint16_t InternLabel(const std::string& name);
  std::optional<uint16_t> FindLabel(const std::string& name) const;
  const std::string& LabelName(uint16_t id) const { return labels_[id]; }

  Node AddNode();
  void AddNodes(size_t count);
  size_t num_nodes() const { return out_.size(); }
  void SetAttr(Node node, const std::string& name, int64_t value);

  bool HasEdge(Node src, Node dst, uint16_t label) const;
  // Both return false when the edge already is / is not present.
  bool AddEdge(Node src, Node dst, uint16_t label);
  bool RemoveEdge(Node src, Node dst, uint16_t label);

  size_t num_edges() const { return edges_.size(); }
  // Live edges in no particular order (swap-removal on delete).
  const std::vector<MirrorEdge>& edges() const { return edges_; }
  size_t OutDegree(Node node) const { return out_[node].size(); }

  // Every node reachable from `src` by a path matching `expr`, sorted.
  std::vector<Node> Audience(const RefExpr& expr, Node src) const;
  bool Matches(const RefExpr& expr, Node src, Node dst) const;

 private:
  struct Half {
    Node other;
    uint16_t label;
  };
  bool Passes(const RefStep& step, Node node) const;

  std::vector<std::string> labels_;
  std::unordered_map<std::string, std::vector<int64_t>> attrs_;
  std::vector<std::vector<Half>> out_;
  std::vector<std::vector<Half>> in_;
  std::vector<MirrorEdge> edges_;
  // Position of each live edge in edges_, keyed by (src, dst, label).
  std::unordered_map<uint64_t, uint32_t> edge_pos_;
};

// Rebuilds the documentation graph of QUERY_SEMANTICS.md and checks
// every row of its worked-examples table. Returns the failures (empty
// when all rows reproduce).
std::vector<std::string> CheckWorkedExamples();

}  // namespace loadbench

#endif  // LOADBENCH_REFERENCE_H_
