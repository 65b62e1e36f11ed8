// sargus_load: the end-to-end load benchmark.
//
//   sargus_load --workload <feed-read|social-churn|sharded-feed>
//               --seed <n> --seconds <s> --trace <0|1>
//               [--work-dir <dir>] [--single-engine]
//
// Prints each metric by name with its unit, then, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end set, with
// --trace 1 the per-layer set. Exits 1 when any output disagrees with
// the reference checks.
#include <sys/types.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "reference.h"
#include "trace.h"
#include "workloads.h"

namespace loadbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"check_p50_us", "us"},
    {"feed_batch_p50_us", "us"},
    {"fanout_batch_p50_us", "us"},
    {"policy_refresh_p50_us", "us"},
    {"bundle_bytes", "bytes"},
    {"peak_rss_mib", "MiB"},
};

// Layers a workload leaves idle report 0.
constexpr MetricDef kPerLayer[] = {
    {"engine.view_acquire_ns", "ns"},
    {"engine.facade_overhead_us", "us"},
    {"engine.pinned_check_p50_us", "us"},
    {"engine.pinned_check_p99_us", "us"},
    {"engine.sync_write_us.overlay_256", "us"},
    {"engine.sync_write_us.overlay_1k", "us"},
    {"engine.sync_write_us.overlay_4k", "us"},
    {"engine.sync_write_us.overlay_threshold", "us"},
    {"engine.write_queue.ops_per_batch", "count"},
    {"engine.write_queue.max_batch", "count"},
    {"engine.submit_p99_ns", "ns"},
    {"engine.batch_over_loop", "ratio"},
    {"engine.refresh_policies_us", "us"},
    {"query.pairs_visited_per_check", "count"},
    {"query.share.owner", "ratio"},
    {"query.share.online-bfs", "ratio"},
    {"query.share.join-index", "ratio"},
    {"query.check_p50_us.owner", "us"},
    {"query.check_p50_us.online-bfs", "us"},
    {"query.check_p50_us.join-index", "us"},
    {"query.batch_audience_share", "ratio"},
    {"query.grant_share", "ratio"},
    {"graph.overlay_entries_p50", "count"},
    {"graph.overlay_entries_max", "count"},
    {"index.rebuild_s", "s"},
    {"index.compact_ms", "ms"},
    {"index.compactions_full", "count"},
    {"index.compactions_incremental", "count"},
    {"storage.records_per_sync", "count"},
    {"storage.wal_bytes_per_write", "bytes"},
    {"storage.save_snapshot_ms", "ms"},
    {"storage.reopen_empty_tail_ms", "ms"},
    {"storage.wal_replay_ms", "ms"},
    {"storage.recovery_ms", "ms"},
    {"storage.bundle_bytes_per_edge", "bytes"},
    {"shard.build_s", "s"},
    {"shard.summary_refresh_s", "s"},
    {"shard.cross_shard_share", "ratio"},
    {"shard.summary_resolved_share", "ratio"},
    {"shard.fallback_rounds_per_walk", "count"},
    {"shard.local_check_p50_us", "us"},
    {"shard.summary_check_p50_us", "us"},
    {"shard.fallback_check_p50_us", "us"},
    {"shard.threaded_check_p50_us", "us"},
    {"shard.threaded_feed_batch_p50_us", "us"},
    {"core.rule_add_us", "us"},
    {"load.check_p99_us", "us"},
    {"load.check_per_s", "1/s"},
    {"load.feed_batch_p99_us", "us"},
    {"load.fanout_batch_p99_us", "us"},
    {"load.write_ack_p50_us", "us"},
    {"load.write_ack_p99_us", "us"},
    {"load.write_burst_per_s", "1/s"},
    {"load.generator_late_p99_us", "us"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
    {"trace.self_us_per_op.bench", "us"},
    {"trace.self_us_per_op.engine", "us"},
    {"trace.self_us_per_op.index", "us"},
    {"trace.self_us_per_op.storage", "us"},
    {"trace.self_us_per_op.shard", "us"},
    {"trace.self_us_per_op.core", "us"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: sargus_load --workload "
               "<feed-read|social-churn|sharded-feed> --seed <n> --seconds "
               "<s> --trace <0|1> [--work-dir <dir>] [--single-engine]\n",
               why);
  std::exit(2);
}

RunArgs ParseArgs(int argc, char** argv) {
  RunArgs a;
  a.work_dir = ".bench_out";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value() != "0";
    } else if (flag == "--work-dir") {
      a.work_dir = value();
    } else if (flag == "--single-engine") {
      a.single_engine = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) Usage("no workload");
  if (!(a.seconds > 0 && a.seconds <= 600)) Usage("bad --seconds");
  return a;
}

// Self time per layer and per span name, beside the span counts.
void TraceReport(const RunArgs& args, MetricTable& layer) {
  const auto by_name = Tracer::Aggregate();
  const auto by_layer = Tracer::AggregateByLayer();
  uint64_t ops = 0;
  for (const auto& [name, s] : by_name) {
    if (name.starts_with("bench.")) ops += s.count;
  }
  const std::string stem =
      args.work_dir + "/" + args.workload + "-" + std::to_string(args.seed);
  std::ofstream table(stem + ".layers.txt");
  char line[256];
  std::snprintf(line, sizeof line, "%-32s %10s %12s %12s %12s\n", "span",
                "count", "total_ms", "self_ms", "self_us/op");
  std::fputs(line, stderr);
  table << line;
  auto row = [&](const std::string& name, const Tracer::NameStats& s) {
    std::snprintf(line, sizeof line, "%-32s %10llu %12.3f %12.3f %12.4f\n",
                  name.c_str(), static_cast<unsigned long long>(s.count),
                  static_cast<double>(s.total_ns) / 1e6,
                  static_cast<double>(s.self_ns) / 1e6,
                  ops == 0 ? 0.0
                           : static_cast<double>(s.self_ns) / 1e3 /
                                 static_cast<double>(ops));
    std::fputs(line, stderr);
    table << line;
  };
  for (const auto& [name, s] : by_layer) row("[" + name + "]", s);
  for (const auto& [name, s] : by_name) row(name, s);
  for (const auto& [name, s] : by_layer) {
    const std::string metric = "trace.self_us_per_op." + name;
    if (ops > 0) {
      layer.Set(metric,
                static_cast<double>(s.self_ns) / 1e3 / static_cast<double>(ops),
                "us");
    }
  }
  layer.Set("trace.spans", static_cast<double>(Tracer::SpanCount()), "count");
  if (!Tracer::WriteSpans(stem + ".spans.csv")) {
    std::fprintf(stderr, "could not write %s.spans.csv\n", stem.c_str());
  }
  std::fprintf(stderr, "spans kept %llu of %llu; trace in %s.spans.csv\n",
               static_cast<unsigned long long>(Tracer::SpanCount() -
                                               Tracer::DroppedRawSpans()),
               static_cast<unsigned long long>(Tracer::SpanCount()),
               stem.c_str());
}

void PrintJsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  std::printf("%.17g", v);
}

// Peak resident set of this process in MiB (VmHWM).
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 16, '\n');
  }
  return 0;
}

}  // namespace

int Main(int argc, char** argv) {
  RunArgs args = ParseArgs(argc, argv);
  const std::string base = args.work_dir;
  args.work_dir = base + "/run-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) Usage(("cannot create " + args.work_dir).c_str());

  // The reference must reproduce the documented semantics before it may
  // judge the program.
  const std::vector<std::string> broken = CheckWorkedExamples();
  for (const auto& b : broken) {
    std::fprintf(stderr, "reference matcher fails a worked example: %s\n",
                 b.c_str());
  }
  if (!broken.empty()) return 1;

  Tracer::Enable(args.trace);
  RunOutput out;
  if (args.workload == "feed-read") {
    RunFeedRead(args, out);
  } else if (args.workload == "social-churn") {
    RunSocialChurn(args, out);
  } else if (args.workload == "sharded-feed") {
    RunShardedFeed(args, out);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  out.e2e.Set("peak_rss_mib", PeakRssMiB(), "MiB");

  if (args.trace) {
    const std::string run_dir = args.work_dir;
    args.work_dir = base;
    TraceReport(args, out.layer);
    args.work_dir = run_dir;
  }
  Tracer::Enable(false);
  std::filesystem::remove_all(args.work_dir, ec);

  out.ledger.Report(stderr);
  const bool correct = out.ledger.mismatches() == 0;
  std::printf("workload %s seed %llu: attempted %llu failed %llu%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(out.ledger.attempted()),
              static_cast<unsigned long long>(out.ledger.failed()),
              correct ? "" : " OUTPUT MISMATCH");
  for (const MetricDef& m : kEndToEnd) {
    std::printf("  %-40s %16.4f %s\n", m.name, out.e2e.Get(m.name), m.unit);
  }
  // Untraced runs list the per-layer figures they measured anyway (the
  // unbounded load.* figures among them), outside the JSON result.
  for (const MetricDef& m : kPerLayer) {
    if (args.trace || out.layer.Has(m.name)) {
      std::printf("  %-40s %16.4f %s\n", m.name, out.layer.Get(m.name), m.unit);
    }
  }
  bool missing = false;
  for (const MetricDef& m : kEndToEnd) {
    if (!out.e2e.Has(m.name)) {
      std::fprintf(stderr, "end-to-end metric %s was not measured\n", m.name);
      missing = true;
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.ledger.attempted()),
              static_cast<unsigned long long>(out.ledger.failed()));
  bool first = true;
  auto emit = [&](const MetricDef& m, double v) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", m.name);
    PrintJsonNumber(v);
    std::printf(", \"unit\": \"%s\"}", m.unit);
    first = false;
  };
  if (args.trace) {
    for (const MetricDef& m : kPerLayer) emit(m, out.layer.Get(m.name));
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m, out.e2e.Get(m.name));
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct && !missing ? 0 : 1;
}

}  // namespace loadbench

int main(int argc, char** argv) { return loadbench::Main(argc, argv); }
