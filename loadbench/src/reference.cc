#include "reference.h"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cstdlib>
#include <deque>

namespace loadbench {
namespace {

constexpr int kMaxHopBound = 64;
constexpr int64_t kUnset = INT64_MIN;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool Parse(RefExpr* out, std::string* error) {
    out->steps.clear();
    do {
      RefStep step;
      if (!ParseStep(&step)) break;
      out->steps.push_back(std::move(step));
      SkipSpace();
    } while (Eat('/'));
    SkipSpace();
    if (error_.empty() && pos_ != text_.size()) Fail("trailing input");
    if (error_.empty() && out->steps.empty()) Fail("empty expression");
    if (!error_.empty()) {
      *error = error_ + " at " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(
                                      text_[pos_]))) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Fail(const std::string& why) {
    if (error_.empty()) error_ = why;
    return false;
  }
  bool Ident(std::string* out) {
    SkipSpace();
    const size_t start = pos_;
    if (pos_ < text_.size() &&
        (std::isalpha(static_cast<unsigned char>(text_[pos_])) ||
         text_[pos_] == '_')) {
      ++pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        ++pos_;
      }
    }
    if (pos_ == start) return Fail("expected identifier");
    out->assign(text_.substr(start, pos_ - start));
    return true;
  }
  bool Integer(int64_t* out) {
    SkipSpace();
    bool negative = false;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      negative = text_[pos_] == '-';
      ++pos_;
    }
    const size_t start = pos_;
    // Accumulate as a negative number so INT64_MIN parses exactly.
    int64_t value = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      const int digit = text_[pos_] - '0';
      if (value < (INT64_MIN + digit) / 10) return Fail("integer overflow");
      value = value * 10 - digit;
      ++pos_;
    }
    if (pos_ == start) return Fail("expected integer");
    if (!negative) {
      if (value == INT64_MIN) return Fail("integer overflow");
      value = -value;
    }
    *out = value;
    return true;
  }
  bool ParseStep(RefStep* step) {
    if (!Ident(&step->label)) return false;
    step->backward = Eat('-');
    if (!Eat('[')) return Fail("expected '['");
    int64_t lo = 0;
    int64_t hi = 0;
    if (!Integer(&lo)) return false;
    hi = lo;
    if (Eat(',') && !Integer(&hi)) return false;
    if (!Eat(']')) return Fail("expected ']'");
    if (lo < 1 || hi < lo || hi > kMaxHopBound) return Fail("bad hop bounds");
    step->min_hops = static_cast<int>(lo);
    step->max_hops = static_cast<int>(hi);
    if (Eat('{')) {
      do {
        RefCond cond;
        if (!Ident(&cond.attr) || !Op(&cond.op) || !Integer(&cond.value)) {
          return false;
        }
        step->conds.push_back(std::move(cond));
      } while (Eat(','));
      if (!Eat('}')) return Fail("expected '}'");
    }
    return true;
  }
  bool Op(RefCond::Op* op) {
    SkipSpace();
    const std::string_view rest = text_.substr(pos_);
    struct Token {
      std::string_view text;
      RefCond::Op op;
    };
    // Two-character operators first so "<=" is not read as "<".
    static constexpr Token kTokens[] = {
        {"<=", RefCond::Op::kLe}, {">=", RefCond::Op::kGe},
        {"==", RefCond::Op::kEq}, {"!=", RefCond::Op::kNe},
        {"<", RefCond::Op::kLt},  {">", RefCond::Op::kGt},
    };
    for (const Token& t : kTokens) {
      if (rest.starts_with(t.text)) {
        *op = t.op;
        pos_ += t.text.size();
        return true;
      }
    }
    return Fail("expected comparison operator");
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

uint64_t EdgeKey(Node src, Node dst, uint16_t label) {
  return (static_cast<uint64_t>(src) << 40) ^
         (static_cast<uint64_t>(dst) << 16) ^ label;
}

bool Compare(int64_t lhs, RefCond::Op op, int64_t rhs) {
  switch (op) {
    case RefCond::Op::kLt: return lhs < rhs;
    case RefCond::Op::kLe: return lhs <= rhs;
    case RefCond::Op::kGt: return lhs > rhs;
    case RefCond::Op::kGe: return lhs >= rhs;
    case RefCond::Op::kEq: return lhs == rhs;
    case RefCond::Op::kNe: return lhs != rhs;
  }
  return false;
}

}  // namespace

bool ParseRefExpr(std::string_view text, RefExpr* out, std::string* error) {
  return Parser(text).Parse(out, error);
}

uint16_t Mirror::InternLabel(const std::string& name) {
  if (auto id = FindLabel(name)) return *id;
  labels_.push_back(name);
  return static_cast<uint16_t>(labels_.size() - 1);
}

std::optional<uint16_t> Mirror::FindLabel(const std::string& name) const {
  for (size_t i = 0; i < labels_.size(); ++i) {
    if (labels_[i] == name) return static_cast<uint16_t>(i);
  }
  return std::nullopt;
}

Node Mirror::AddNode() {
  out_.emplace_back();
  in_.emplace_back();
  for (auto& [name, column] : attrs_) column.push_back(kUnset);
  return static_cast<Node>(out_.size() - 1);
}

void Mirror::AddNodes(size_t count) {
  for (size_t i = 0; i < count; ++i) AddNode();
}

void Mirror::SetAttr(Node node, const std::string& name, int64_t value) {
  auto& column = attrs_[name];
  column.resize(out_.size(), kUnset);
  column[node] = value;
}

bool Mirror::HasEdge(Node src, Node dst, uint16_t label) const {
  return edge_pos_.contains(EdgeKey(src, dst, label));
}

bool Mirror::AddEdge(Node src, Node dst, uint16_t label) {
  const uint64_t key = EdgeKey(src, dst, label);
  if (edge_pos_.contains(key)) return false;
  edge_pos_.emplace(key, static_cast<uint32_t>(edges_.size()));
  edges_.push_back({src, dst, label});
  out_[src].push_back({dst, label});
  in_[dst].push_back({src, label});
  return true;
}

bool Mirror::RemoveEdge(Node src, Node dst, uint16_t label) {
  auto it = edge_pos_.find(EdgeKey(src, dst, label));
  if (it == edge_pos_.end()) return false;
  const uint32_t pos = it->second;
  edge_pos_.erase(it);
  if (pos + 1 != edges_.size()) {
    edges_[pos] = edges_.back();
    const MirrorEdge& moved = edges_[pos];
    edge_pos_[EdgeKey(moved.src, moved.dst, moved.label)] = pos;
  }
  edges_.pop_back();
  auto drop = [](std::vector<Half>& list, Node other, uint16_t lbl) {
    for (size_t i = 0; i < list.size(); ++i) {
      if (list[i].other == other && list[i].label == lbl) {
        list[i] = list.back();
        list.pop_back();
        return;
      }
    }
  };
  drop(out_[src], dst, label);
  drop(in_[dst], src, label);
  return true;
}

bool Mirror::Passes(const RefStep& step, Node node) const {
  for (const RefCond& cond : step.conds) {
    auto it = attrs_.find(cond.attr);
    // Closed world: a missing attribute fails the condition.
    if (it == attrs_.end() || node >= it->second.size() ||
        it->second[node] == kUnset) {
      return false;
    }
    if (!Compare(it->second[node], cond.op, cond.value)) return false;
  }
  return true;
}

std::vector<Node> Mirror::Audience(const RefExpr& expr, Node src) const {
  std::vector<Node> audience;
  if (expr.steps.empty() || src >= num_nodes()) return audience;
  // State = (node, step, hops taken in that step); hops in [0, max].
  std::vector<size_t> offset(expr.steps.size() + 1, 0);
  std::vector<std::optional<uint16_t>> label(expr.steps.size());
  for (size_t i = 0; i < expr.steps.size(); ++i) {
    offset[i + 1] = offset[i] + expr.steps[i].max_hops + 1;
    label[i] = FindLabel(expr.steps[i].label);
  }
  const size_t per_node = offset.back();
  std::vector<uint8_t> seen(num_nodes() * per_node, 0);
  std::vector<uint8_t> accepted(num_nodes(), 0);
  struct State {
    Node node;
    uint32_t step;
    uint32_t hops;
  };
  std::deque<State> queue;
  auto visit = [&](Node node, uint32_t step, uint32_t hops) {
    uint8_t& s = seen[node * per_node + offset[step] + hops];
    if (s) return;
    s = 1;
    queue.push_back({node, step, hops});
  };
  visit(src, 0, 0);
  const uint32_t last = static_cast<uint32_t>(expr.steps.size() - 1);
  while (!queue.empty()) {
    const State st = queue.front();
    queue.pop_front();
    const RefStep& step = expr.steps[st.step];
    const bool done_step = st.hops >= static_cast<uint32_t>(step.min_hops);
    if (st.step == last && done_step && !accepted[st.node]) {
      accepted[st.node] = 1;
      audience.push_back(st.node);
    }
    if (done_step && st.step < last) visit(st.node, st.step + 1, 0);
    if (st.hops < static_cast<uint32_t>(step.max_hops) && label[st.step]) {
      const auto& halves = step.backward ? in_[st.node] : out_[st.node];
      for (const Half& h : halves) {
        if (h.label == *label[st.step] && Passes(step, h.other)) {
          visit(h.other, st.step, st.hops + 1);
        }
      }
    }
  }
  std::sort(audience.begin(), audience.end());
  return audience;
}

bool Mirror::Matches(const RefExpr& expr, Node src, Node dst) const {
  const std::vector<Node> audience = Audience(expr, src);
  return std::binary_search(audience.begin(), audience.end(), dst);
}

std::vector<std::string> CheckWorkedExamples() {
  Mirror m;
  m.AddNodes(6);
  const uint16_t f = m.InternLabel("friend");
  const uint16_t c = m.InternLabel("colleague");
  const MirrorEdge edges[] = {{0, 1, f}, {1, 2, f}, {2, 3, c}, {0, 4, f},
                              {4, 3, c}, {2, 0, f}, {5, 3, f}, {1, 5, c}};
  for (const MirrorEdge& e : edges) m.AddEdge(e.src, e.dst, e.label);
  for (Node v = 0; v < 6; ++v) m.SetAttr(v, "age", 10 + 10 * v);

  struct Row {
    const char* expr;
    Node src;
    Node dst;
    bool grant;
  };
  static constexpr Row kRows[] = {
      {"friend[1]", 0, 1, true},
      {"friend[1]", 0, 2, false},
      {"friend[1,2]", 0, 2, true},
      {"friend[1,2]/colleague[1]", 0, 3, true},
      {"friend[1,2]/colleague[1]", 0, 5, true},
      {"colleague[1]", 0, 3, false},
      {"friend-[1]", 3, 5, true},
      {"friend-[1]", 3, 2, false},
      {"friend[1]{age>=30}", 0, 4, true},
      {"friend[1]{age>=30}", 0, 1, false},
      {"friend[1]{age>=30}", 1, 2, true},
      {"friend[1,2]{age>=15}/colleague[1]{age>=40}", 0, 3, true},
      {"friend[2,3]", 0, 0, true},
  };
  std::vector<std::string> failures;
  for (const Row& row : kRows) {
    RefExpr expr;
    std::string error;
    if (!ParseRefExpr(row.expr, &expr, &error)) {
      failures.push_back(std::string(row.expr) + ": " + error);
      continue;
    }
    if (m.Matches(expr, row.src, row.dst) != row.grant) {
      failures.push_back(std::string(row.expr) + " " +
                         std::to_string(row.src) + "->" +
                         std::to_string(row.dst) + " expected " +
                         (row.grant ? "grant" : "deny"));
    }
  }
  return failures;
}

}  // namespace loadbench
