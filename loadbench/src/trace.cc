#include "trace.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "util.h"

namespace loadbench {
namespace {

constexpr size_t kMaxRawSpans = 200000;  // across all threads

struct RawSpan {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t request;
  int64_t start_ns;
  int64_t end_ns;
};

struct ThreadState {
  uint64_t thread_index = 0;
  uint64_t next_span = 0;
  Span* current = nullptr;
  uint64_t request = 0;
  std::vector<RawSpan> raw;
  uint64_t dropped = 0;
  std::unordered_map<const char*, Tracer::NameStats> stats;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_request{1};
std::atomic<uint64_t> g_raw_kept{0};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadState>>* g_threads =
    new std::vector<std::unique_ptr<ThreadState>>();  // guarded by g_mu

ThreadState& State() {
  thread_local ThreadState* state = [] {
    auto owned = std::make_unique<ThreadState>();
    ThreadState* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_mu);
    raw->thread_index = g_threads->size() + 1;
    g_threads->push_back(std::move(owned));
    return raw;
  }();
  return *state;
}

}  // namespace

void Tracer::Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

uint64_t Tracer::NewRequest() {
  return g_next_request.fetch_add(1, std::memory_order_relaxed);
}

std::map<std::string, Tracer::NameStats> Tracer::Aggregate() {
  std::map<std::string, NameStats> out;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& t : *g_threads) {
    for (const auto& [name, s] : t->stats) {
      NameStats& o = out[name];
      o.count += s.count;
      o.total_ns += s.total_ns;
      o.self_ns += s.self_ns;
    }
  }
  return out;
}

std::map<std::string, Tracer::NameStats> Tracer::AggregateByLayer() {
  std::map<std::string, NameStats> out;
  for (const auto& [name, s] : Aggregate()) {
    NameStats& o = out[name.substr(0, name.find('.'))];
    o.count += s.count;
    o.total_ns += s.total_ns;
    o.self_ns += s.self_ns;
  }
  return out;
}

uint64_t Tracer::SpanCount() {
  uint64_t n = 0;
  for (const auto& [name, s] : Aggregate()) n += s.count;
  return n;
}

uint64_t Tracer::DroppedRawSpans() {
  std::lock_guard<std::mutex> lock(g_mu);
  uint64_t n = 0;
  for (const auto& t : *g_threads) n += t->dropped;
  return n;
}

bool Tracer::WriteSpans(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,span,parent,request,start_ns,end_ns\n");
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& t : *g_threads) {
    for (const RawSpan& s : t->raw) {
      std::fprintf(f, "%s,%llu,%llu,%llu,%lld,%lld\n", s.name,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

Span::Span(const char* name, uint64_t request) {
  if (!Tracer::enabled()) return;
  ThreadState& t = State();
  name_ = name;
  id_ = (t.thread_index << 40) | ++t.next_span;
  outer_ = t.current;
  parent_ = outer_ != nullptr ? outer_->id_ : 0;
  saved_request_ = t.request;
  request_ = request != 0 ? request : t.request;
  t.request = request_;
  t.current = this;
  start_ = NowNs();
}

Span::~Span() {
  if (name_ == nullptr) return;
  const int64_t end = NowNs();
  ThreadState& t = State();
  const int64_t duration = end - start_;
  Tracer::NameStats& s = t.stats[name_];
  ++s.count;
  s.total_ns += duration;
  s.self_ns += duration - child_ns_;
  if (outer_ != nullptr) outer_->child_ns_ += duration;
  if (g_raw_kept.fetch_add(1, std::memory_order_relaxed) < kMaxRawSpans) {
    t.raw.push_back({name_, id_, parent_, request_, start_, end});
  } else {
    ++t.dropped;
  }
  t.current = outer_;
  t.request = saved_request_;
}

}  // namespace loadbench
