// Small shared pieces of the load benchmark: clock, sample sets,
// metric table and the correctness ledger.
#ifndef LOADBENCH_UTIL_H_
#define LOADBENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace loadbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }

// A set of timings (or any other values); quantiles by linear
// interpolation between order statistics.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Quantile(double q) const {
    if (values_.empty()) return 0.0;
    std::vector<double> v = values_;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  }
  double Median() const { return Quantile(0.5); }
  double Max() const {
    return values_.empty() ? 0.0
                           : *std::max_element(values_.begin(), values_.end());
  }
  double Sum() const {
    double s = 0;
    for (double v : values_) s += v;
    return s;
  }

 private:
  std::vector<double> values_;
};

// Samples filed into fixed-width time windows. Quantiles are taken over
// all samples pooled; the windows give the per-window rate and a
// stability diagnostic.
class WindowedSamples {
 public:
  WindowedSamples() = default;
  WindowedSamples(int64_t start_ns, int64_t width_ns)
      : start_ns_(start_ns), width_ns_(std::max<int64_t>(1, width_ns)) {}
  void Add(int64_t at_ns, double v) {
    const int64_t w = std::max<int64_t>(0, (at_ns - start_ns_) / width_ns_);
    if (static_cast<size_t>(w) >= windows_.size()) windows_.resize(w + 1);
    windows_[w].Add(v);
  }
  void Append(const WindowedSamples& other) {
    if (windows_.empty()) {
      start_ns_ = other.start_ns_;
      width_ns_ = other.width_ns_;
    }
    if (other.windows_.size() > windows_.size()) {
      windows_.resize(other.windows_.size());
    }
    for (size_t i = 0; i < other.windows_.size(); ++i) {
      windows_[i].Append(other.windows_[i]);
    }
  }
  size_t size() const {
    size_t n = 0;
    for (const Samples& w : windows_) n += w.size();
    return n;
  }
  double Sum() const {
    double s = 0;
    for (const Samples& w : windows_) s += w.Sum();
    return s;
  }
  double Quantile(double q) const { return Pooled().Quantile(q); }
  double Median() const { return Quantile(0.5); }
  // The lowest and highest q-quantile of single windows holding at least
  // ten samples beyond q: how much the figure moved within the run.
  std::pair<double, double> WindowRange(double q) const {
    const double need = 10.0 / std::max(1e-9, 1.0 - q);
    Samples per_window;
    for (const Samples& w : windows_) {
      if (static_cast<double>(w.size()) >= need) per_window.Add(w.Quantile(q));
    }
    return {per_window.Quantile(0), per_window.Max()};
  }
  // Median over windows of (samples in window / window width), full
  // windows only.
  double MedianRatePerSecond() const {
    Samples rates;
    for (size_t i = 0; i + 1 < windows_.size(); ++i) {
      rates.Add(static_cast<double>(windows_[i].size()) /
                (static_cast<double>(width_ns_) / 1e9));
    }
    return rates.Median();
  }

 private:
  Samples Pooled() const {
    Samples all;
    for (const Samples& w : windows_) all.Append(w);
    return all;
  }

  int64_t start_ns_ = 0;
  int64_t width_ns_ = 1;
  std::vector<Samples> windows_;
};

// Named metrics of one run, each with its unit.
class MetricTable {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  bool Has(const std::string& name) const { return metrics_.contains(name); }
  double Get(const std::string& name) const {
    auto it = metrics_.find(name);
    return it == metrics_.end() ? 0.0 : it->second.value;
  }

 private:
  struct Entry {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Entry> metrics_;
};

// Operation accounting and correctness findings, shared by all threads.
class Ledger {
 public:
  void Attempt(uint64_t n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    attempted_ += n;
  }
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(what);
  }
  // A wrong output: the run is not correct.
  void Mismatch(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    ++mismatches_;
    if (mismatch_notes_.size() < 20) mismatch_notes_.push_back(what);
  }
  uint64_t attempted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return attempted_;
  }
  uint64_t failed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failed_;
  }
  uint64_t mismatches() const {
    std::lock_guard<std::mutex> lock(mu_);
    return mismatches_;
  }
  void Report(FILE* out) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& s : failures_) std::fprintf(out, "failed op: %s\n", s.c_str());
    for (const auto& s : mismatch_notes_) {
      std::fprintf(out, "MISMATCH: %s\n", s.c_str());
    }
  }

 private:
  mutable std::mutex mu_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t mismatches_ = 0;
  std::vector<std::string> failures_;
  std::vector<std::string> mismatch_notes_;
};

// splitmix64: a tiny, well-mixed generator with a fixed definition, so
// the inputs do not depend on the standard library's distributions.
class Rand {
 public:
  explicit Rand(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

// Derives an independent stream seed from (seed, stream).
inline uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  return Rand(seed * 0x100000001b3ULL + stream).Next();
}

// Lexicographic (generation, overlay_version) stamp comparison.
struct StampPair {
  uint64_t generation = 0;
  uint64_t version = 0;
  bool operator<(const StampPair& o) const {
    return generation != o.generation ? generation < o.generation
                                      : version < o.version;
  }
};

}  // namespace loadbench

#endif  // LOADBENCH_UTIL_H_
