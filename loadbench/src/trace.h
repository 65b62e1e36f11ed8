// In-memory span tracer for the load benchmark.
//
// Spans are recorded from the benchmark's own code around each call
// into a sargus module's public functions. A span carries its name
// ("<module>.<call>"), start, end, parent span and request id. Spans of
// one thread nest; a root span opened with a fresh request id marks one
// benchmark operation, and the spans under it share that id.
//
// Each thread aggregates count, total and self time per span name
// exactly, and keeps the first kMaxRawSpans raw spans for the trace file
// written at exit. When tracing is off a Span costs one branch.
#ifndef LOADBENCH_TRACE_H_
#define LOADBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>

namespace loadbench {

class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled();
  // A fresh request id for a root span.
  static uint64_t NewRequest();

  struct NameStats {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  // Per span name, merged over all threads.
  static std::map<std::string, NameStats> Aggregate();
  // Per module (the span name up to its first '.'), merged.
  static std::map<std::string, NameStats> AggregateByLayer();
  static uint64_t SpanCount();
  static uint64_t DroppedRawSpans();
  // Writes the kept raw spans as CSV
  // (name,span,parent,request,start_ns,end_ns). False on I/O error.
  static bool WriteSpans(const std::string& path);
};

class Span {
 public:
  // `name` must be a string literal. request == 0 inherits the
  // enclosing span's request.
  explicit Span(const char* name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;  // null when tracing is off
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t request_ = 0;
  uint64_t saved_request_ = 0;
  int64_t start_ = 0;
  int64_t child_ns_ = 0;
  Span* outer_ = nullptr;
};

}  // namespace loadbench

#endif  // LOADBENCH_TRACE_H_
