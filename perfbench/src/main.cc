// Copyright 2026 The gkmeans Authors.
// gkbench — the repo benchmark program.
//
//   gkbench --workload <batch_cluster|stream_churn|serve_mixed> --seed <n>
//           --seconds <s> --trace <0|1> [--size full|tiny] [--out-dir <dir>]
//
// Prints the host stamp, then (traced runs) the layer -> end-to-end map,
// then as its last stdout line one JSON result:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// metrics. A human-readable table goes to stderr. perfbench/README.md
// documents every metric.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  bool per_layer;
  const char* moves;  ///< end-to-end metric(s) @ workload a layer metric should move
};

// The benchmark's metric table; BENCHMARK.json lists the same names.
constexpr MetricDef kMetrics[] = {
    // End-to-end: measured untraced, on every workload.
    {"setup_s", "s", false, ""},
    {"peak_rss_mb", "MiB", false, ""},
    {"cluster_s", "s", false, ""},
    {"distortion", "l2sq", false, ""},
    {"ingest_pts_per_s", "1/s", false, ""},
    {"window_p50_ms", "ms", false, ""},
    {"search_p50_us", "us", false, ""},
    {"search_qps", "1/s", false, ""},
    {"insert_p50_us", "us", false, ""},
    {"search_recall10", "ratio", false, ""},
    // Per-layer: measured in the traced run. 0 = layer idle on the workload.
    {"core.graph_build_s", "s", true, "cluster_s@batch_cluster"},
    {"core.graph_round_s", "s", true, "cluster_s@batch_cluster"},
    {"core.gkmeans_iter_s", "s", true, "cluster_s@batch_cluster"},
    {"core.gkmeans_init_s", "s", true, "cluster_s@batch_cluster"},
    {"core.gkmeans_iters", "count", true, "cluster_s@batch_cluster"},
    {"core.graph_recall1", "ratio", true, "distortion@batch_cluster"},
    {"common.l2_batch_ns_d512", "ns", true,
     "cluster_s@batch_cluster (serve_mixed unchanged)"},
    {"common.l2_batch_ns_d32", "ns", true,
     "ingest_pts_per_s@stream_churn (serve_mixed unchanged)"},
    {"stream.observe_window_ms", "ms", true,
     "ingest_pts_per_s,window_p50_ms@stream_churn"},
    {"stream.ingest.walk_us", "us", true, "ingest_pts_per_s,window_p50_ms@stream_churn"},
    {"stream.ingest.commit_us", "us", true,
     "ingest_pts_per_s,window_p50_ms@stream_churn"},
    {"stream.ingest_speedup_4v1", "ratio", true,
     "ingest_pts_per_s,window_p50_ms@stream_churn"},
    {"stream.remove_us", "us", true, "e2e.window_p99_ms@stream_churn"},
    {"stream.journal_append_us", "us", true, "e2e.window_p99_ms@stream_churn"},
    {"stream.compact_ms", "ms", true, "e2e.window_p99_ms@stream_churn"},
    {"stream.checkpoint_bytes", "bytes", true, "e2e.window_p99_ms@stream_churn"},
    {"stream.moves_per_point", "ratio", true, "distortion,window_p50_ms@stream_churn"},
    {"stream.touched_per_point", "ratio", true, "distortion,window_p50_ms@stream_churn"},
    {"stream.split_merges", "1/window", true, "distortion,window_p50_ms@stream_churn"},
    {"stream.expired", "1/window", true, "distortion,window_p50_ms@stream_churn"},
    {"stream.live_num_seeds", "count", true, "distortion,window_p50_ms@stream_churn"},
    {"serve.protocol.encode_us", "us", true, "search_p50_us,search_qps@serve_mixed"},
    {"serve.protocol.decode_us", "us", true, "search_p50_us,search_qps@serve_mixed"},
    {"serve.frame_us", "us", true, "search_p50_us,search_qps@serve_mixed"},
    {"serve.batcher.flush_us", "us", true, "search_p50_us,search_qps@serve_mixed"},
    {"serve.batcher.batch_rows", "rows", true, "search_p50_us,search_qps@serve_mixed"},
    {"serve.residual_us", "us", true, "search_p50_us,search_qps@serve_mixed"},
    {"serve.route.spill_rate", "ratio", true, "search_p50_us,search_recall10@serve_mixed"},
    {"serve.ingest.insert_us", "us", true, "insert_p50_us,e2e.search_p99_us@serve_mixed"},
    {"stream.search_us", "us", true, "search_p50_us,search_recall10@serve_mixed"},
    {"stream.search_recall10", "ratio", true, "search_p50_us,search_recall10@serve_mixed"},
    {"stream.checkpoint_load_s", "s", true, "setup_s@serve_mixed"},
    // End-to-end tails, reported without a bound: on serve_mixed they follow
    // the shared host's scheduling stalls (10-seed spread 0.9-1.8).
    {"e2e.window_p99_ms", "ms", true, "tail of window_p50_ms, every workload (unbounded)"},
    {"e2e.search_p99_us", "us", true, "tail of search_p50_us, every workload (unbounded)"},
    {"bench.gen_late_us", "us", true, "benchmark health: open-loop generator lateness"},
    {"bench.span_coverage", "ratio", true,
     "benchmark health: share of traced op time inside layer spans"},
    {"bench.trace_overhead_pct", "%", true,
     "benchmark health: traced minus untraced op time"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "gkbench: %s\nusage: gkbench --workload <batch_cluster|stream_churn|"
               "serve_mixed> --seed <n> --seconds <s> --trace <0|1> "
               "[--size full|tiny] [--out-dir <dir>]\n",
               why);
  std::exit(2);
}

gkb::RunConfig ParseArgs(int argc, char** argv) {
  gkb::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      cfg.workload = val;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') Usage("--seed must be a whole number");
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(cfg.seconds > 0.0) || cfg.seconds > 600.0) {
        Usage("--seconds must be in (0, 600]");
      }
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") Usage("--trace must be 0 or 1");
      cfg.trace = val == "1";
    } else if (arg == "--size") {
      if (val != "full" && val != "tiny") Usage("--size must be full or tiny");
      cfg.tiny = val == "tiny";
    } else if (arg == "--out-dir") {
      cfg.out_dir = val;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (cfg.workload.empty()) Usage("--workload is required");
  return cfg;
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Appends `"name":value` to a JSON object body.
void AppendMember(std::string& body, const char* name, const std::string& value) {
  if (!body.empty()) body.push_back(',');
  body.push_back('"');
  body.append(name);
  body.append("\":");
  body.append(value);
}

}  // namespace

int main(int argc, char** argv) {
  const gkb::RunConfig cfg = ParseArgs(argc, argv);
  gkb::Report report;
  gkb::Tracer tracer;
  if (cfg.workload == "batch_cluster") {
    gkb::RunBatchCluster(cfg, report, tracer);
  } else if (cfg.workload == "stream_churn") {
    gkb::RunStreamChurn(cfg, report, tracer);
  } else if (cfg.workload == "serve_mixed") {
    gkb::RunServeMixed(cfg, report, tracer);
  } else {
    Usage(("unknown workload " + cfg.workload).c_str());
  }
  if (cfg.trace) gkb::MeasureCommonKernels(cfg.seed, report);

  // Threads the workload's load asks for: batch_cluster is single-threaded,
  // the others use 4 (ingest threads; 4 client connections).
  const std::string host = gkb::HostJson(cfg.workload == "batch_cluster" ? 1 : 4);
  std::printf("{\"host\":%s,\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"notes\":%s}\n",
              host.c_str(), cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.trace ? 1 : 0,
              report.NotesJson().c_str());

  std::string metrics;
  std::string layer_map;
  for (const MetricDef& m : kMetrics) {
    if (m.per_layer != cfg.trace) continue;
    if (!m.per_layer && !report.Has(m.name)) {
      std::fprintf(stderr, "gkbench: workload did not measure %s\n", m.name);
      return 3;
    }
    const double v = report.Get(m.name);  // an unset layer metric: idle, 0
    std::fprintf(stderr, "  %-28s %18.6f %s\n", m.name, v, m.unit);
    AppendMember(metrics, m.name,
                 "{\"value\":" + Number(v) + ",\"unit\":\"" + m.unit + "\"}");
    if (m.per_layer) AppendMember(layer_map, m.name, std::string("\"") + m.moves + "\"");
  }

  if (cfg.trace) {
    std::printf("{\"layer_map\":{%s}}\n", layer_map.c_str());
    std::fprintf(stderr, "  span self time (s):\n");
    for (const auto& [name, s] : tracer.Summarize()) {
      std::fprintf(stderr, "    %-28s n=%-8llu total %.6f self %.6f\n", name.c_str(),
                   static_cast<unsigned long long>(s.count), s.total_s, s.self_s);
    }
    const std::string path = cfg.out_dir + "/spans_" + cfg.workload + "_seed" +
                             std::to_string(cfg.seed) + ".jsonl";
    if (tracer.WriteJsonl(path, "{\"host\":" + host + "}")) {
      std::fprintf(stderr, "  spans written to %s\n", path.c_str());
    } else {
      report.Check(false, "could not write the spans file " + path);
    }
  }
  if (report.attempted() == 0) report.AddOps(1, 1);
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()), metrics.c_str());
  return 0;
}
