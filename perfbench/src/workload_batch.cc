// Copyright 2026 The gkmeans Authors.
// batch_cluster: the paper's headline. Repeated one-call GkMeansCluster
// (Alg. 3 KNN graph, then Alg. 2) on VLAD-like d=512 data at the Table 2
// shape n/k = 10, kappa = 40, single-threaded. Time goes to `core` and the
// `common` kernels; `stream` and `serve` stay idle.
//
// End-to-end: cluster_s (mean call), distortion (median final E over
// repetitions with distinct algorithm seeds), ingest_pts_per_s (n over the
// mean Alg. 3 graph build time the call reports), window_p50_ms (Alg. 2
// epoch times: the batch analogue of a stream window), insert_p50_us
// (assigning a held-out point to its nearest centroid), search_* (ANN
// search over the Alg. 3 graph, §4.3). The p50 figures are the mean over
// repetitions of each repetition's median. Every timed figure is scaled by
// the HostSpeed reference sampled between the calls and probes.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/kernels.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "dataset/synthetic.h"
#include "eval/metrics.h"
#include "graph/brute_force.h"
#include "search_entry.h"
#include "workloads.h"

namespace gkb {
namespace {

constexpr std::size_t kDim = 512;
constexpr std::size_t kKappa = 40;
constexpr std::size_t kTopK = 10;
constexpr int kSetupReps = 3;
constexpr std::size_t kPoolFactor = 24;

struct BatchInputs {
  gkm::Matrix data;
  gkm::Matrix queries;  ///< held-out rows from the same generator
  std::vector<std::vector<std::uint32_t>> truth;  ///< exact top-10 per query
  std::vector<std::uint32_t> sample;       ///< nodes of the recall sample
  std::vector<std::uint32_t> sample_nn;    ///< their exact nearest neighbor
};

BatchInputs MakeInputs(std::size_t n, std::size_t nq, std::size_t nsample,
                       std::uint64_t seed) {
  BatchInputs in;
  // The generator's mode count grows with its n (n/300 for VLAD), so rows
  // are drawn from a larger set: many modes keep E comparable across seeds.
  const gkm::Matrix pool = gkm::MakeVladLike(kPoolFactor * (n + nq), kDim, seed).vectors;
  std::vector<std::uint32_t> rows(pool.rows());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<std::uint32_t>(i);
  gkm::Rng rng(seed ^ 0x5a5a5a5aULL);
  rng.Shuffle(rows);
  in.data.Reset(n, kDim);
  in.queries.Reset(nq, kDim);
  for (std::size_t i = 0; i < n; ++i) in.data.SetRow(i, pool.Row(rows[i]));
  for (std::size_t i = 0; i < nq; ++i) in.queries.SetRow(i, pool.Row(rows[n + i]));
  std::vector<std::uint32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<std::uint32_t>(i);
  in.truth = ExactTopK(in.data, ids, in.queries, kTopK);
  rng.Shuffle(ids);
  in.sample.assign(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(nsample));
  in.sample_nn = gkm::ExactNearestForSubset(in.data, in.sample);
  return in;
}

// Output checks of one clustering: labels in range, E recomputed from
// the labels equal to the reported E, and a non-increasing Alg. 2 trace.
void CheckClustering(const gkm::Matrix& data, const gkm::ClusteringResult& res,
                     std::size_t k, Report& report) {
  bool labels_ok = res.assignments.size() == data.rows();
  for (std::uint32_t l : res.assignments) labels_ok = labels_ok && l < k;
  report.Check(labels_ok, "batch_cluster: a label is out of range");
  if (!labels_ok) return;
  const double e = gkm::AverageDistortion(data, res.assignments, k);
  report.Check(std::fabs(e - res.distortion) <= 1e-5 * std::max(1e-12, e),
               "batch_cluster: recomputed E differs from the reported E");
  bool monotone = !res.trace.empty();
  for (std::size_t i = 1; i < res.trace.size(); ++i) {
    const double prev = res.trace[i - 1].distortion;
    monotone = monotone && res.trace[i].distortion <= prev * (1.0 + 1e-9);
  }
  report.Check(monotone, "batch_cluster: the Alg. 2 trace increased");
}

// Alg. 2 epoch durations of one run (trace times are cumulative, the
// first epoch starts when initialization ends).
std::vector<double> EpochSeconds(const gkm::ClusteringResult& res) {
  std::vector<double> out;
  double prev = res.init_seconds;
  for (const gkm::IterStat& s : res.trace) {
    out.push_back(s.elapsed_seconds - prev);
    prev = s.elapsed_seconds;
  }
  return out;
}

// Probes of one clustered model, run after each untraced repetition so the
// samples spread over the whole run.
struct ModelProbes {
  std::vector<double> insert_p50_us;  ///< held-out row -> nearest centroid, per model
  std::vector<double> search_p50_us;  ///< ANN query over the Alg. 3 graph, per model
  std::vector<double> search_p99_us;  ///< per probed model
  double search_wall_s = 0.0;
  std::size_t searches = 0;
  std::vector<double> recall10;       ///< one per probed model
};

void ProbeModel(const BatchInputs& in, const gkm::PipelineResult& model, std::size_t k,
                HostSpeed& host, ModelProbes& probes, Report& report) {
  const gkm::Matrix& centroids = model.clustering.centroids;
  std::size_t assigned_ok = 0;
  std::vector<double> insert_us;
  for (std::size_t q = 0; q < in.queries.rows(); ++q) {
    const std::int64_t t0 = NowNs();
    const std::size_t c = gkm::NearestRowBatch(in.queries.Row(q), centroids.Row(0),
                                               centroids.stride(), centroids.rows(), kDim);
    insert_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    assigned_ok += c < k ? 1 : 0;
  }
  report.Check(assigned_ok == in.queries.rows(), "batch_cluster: bad centroid assignment");
  probes.insert_p50_us.push_back(Median(insert_us));
  host.Sample();

  const gkm::GraphSearcher searcher(in.data, model.graph);
  const ProbeRun probe = RunProbe(in.queries, [&](const float* q) {
    return SearchGraph(searcher, q, kTopK);
  });
  bool shaped = true;
  for (const auto& r : probe.results) shaped = shaped && r.size() == kTopK;
  report.Check(shaped, "batch_cluster: an ANN answer has the wrong length");
  probes.search_p50_us.push_back(Median(probe.us));
  probes.search_p99_us.push_back(Quantile(probe.us, 0.99));
  probes.search_wall_s += probe.wall_s;
  probes.searches += probe.us.size();
  host.Sample();
  probes.recall10.push_back(RecallAtK(probe.results, in.truth, kTopK));
  report.AddOps(in.queries.rows() + probe.results.size(), 0);
}

}  // namespace

void RunBatchCluster(const RunConfig& cfg, Report& report, Tracer& tracer) {
  const std::size_t n = cfg.tiny ? 600 : 2000;
  const std::size_t k = n / 10;
  const std::size_t nq = cfg.tiny ? 50 : 500;
  const std::size_t nsample = cfg.tiny ? 50 : 200;

  // --- set-up: inputs and their exact oracles, several times -------------
  std::vector<double> setup_s;
  BatchInputs in;
  HostSpeed setup_host;
  for (int r = 0; r < kSetupReps; ++r) {
    setup_host.Sample();
    const std::int64_t t0 = NowNs();
    in = MakeInputs(n, nq, nsample, cfg.seed);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  setup_host.Sample();
  report.Set("setup_s", Median(setup_s) * setup_host.Scale());
  report.Note("rss_reset", ResetPeakRss());

  gkm::PipelineParams pp;
  pp.k = k;
  pp.graph.kappa = kKappa;
  pp.clustering.kappa = kKappa;

  // --- timed region: repeated one-call clustering ------------------------
  std::vector<double> untraced_s, traced_s, distortion, epoch_s, traced_epoch_s;
  std::vector<double> init_s, iters, recall1, graph_s, epoch_p50_ms;
  gkm::PipelineResult last;
  ModelProbes probes;
  HostSpeed host;
  const std::int64_t start = NowNs();
  for (std::size_t rep = 0;; ++rep) {
    const double elapsed = static_cast<double>(NowNs() - start) * 1e-9;
    if (rep >= 3 && elapsed >= cfg.seconds) break;
    // Untraced runs give every repetition its own algorithm seed; traced
    // runs pair an untraced and a traced repetition on one seed, so the
    // pair's difference is the tracing overhead.
    const std::uint64_t alg_seed = cfg.trace ? rep / 2 : rep;
    pp.graph.seed = cfg.seed * 7919 + alg_seed;
    pp.clustering.seed = cfg.seed * 104729 + alg_seed;
    Tracer* t = (cfg.trace && rep % 2 == 1) ? &tracer : nullptr;
    host.Sample();
    const std::int64_t t0 = NowNs();
    if (t == nullptr) {
      last = gkm::GkMeansCluster(in.data, pp);
      untraced_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
      graph_s.push_back(last.graph_seconds);
    } else {
      // The same two calls GkMeansCluster makes, with a span around each.
      Span op(t, "bench.cluster", rep);
      {
        Span g(t, "core.graph_build");
        std::int64_t round_start = NowNs();
        last.graph = gkm::BuildKnnGraph(
            in.data, pp.graph, nullptr,
            [&](std::size_t, const gkm::KnnGraph&) {
              const std::int64_t now = NowNs();
              t->Add("core.graph_round", g.id(), round_start, now);
              round_start = now;
            });
      }
      {
        Span c(t, "core.gkmeans");
        const std::int64_t c0 = NowNs();
        gkm::GkMeansParams cp = pp.clustering;
        cp.k = pp.k;
        last.clustering = gkm::GkMeansWithGraph(in.data, last.graph, cp);
        const std::int64_t init_end =
            c0 + static_cast<std::int64_t>(last.clustering.init_seconds * 1e9);
        t->Add("core.gkmeans_init", c.id(), c0, init_end);
      }
      traced_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
      init_s.push_back(last.clustering.init_seconds);
      iters.push_back(static_cast<double>(last.clustering.iterations));
      const std::vector<double> ep = EpochSeconds(last.clustering);
      traced_epoch_s.insert(traced_epoch_s.end(), ep.begin(), ep.end());
      recall1.push_back(gkm::SampledRecallAt1(last.graph, in.sample, in.sample_nn));
    }
    distortion.push_back(last.clustering.distortion);
    CheckClustering(in.data, last.clustering, k, report);
    report.AddOps(1, 0);
    if (t == nullptr) {
      const std::vector<double> ep = EpochSeconds(last.clustering);
      epoch_s.insert(epoch_s.end(), ep.begin(), ep.end());
      epoch_p50_ms.push_back(Median(ep) * 1e3);
      host.Sample();
      ProbeModel(in, last, k, host, probes, report);
    }
  }

  // Timed figures at the reference host speed (see HostSpeed).
  const double scale = host.Scale();
  report.Note("host_speed_scale", scale);
  report.Set("peak_rss_mb", PeakRssMb());
  report.Set("cluster_s", Mean(untraced_s) * scale);
  report.Set("distortion", Median(distortion));
  // Points per second through Alg. 3, the part of the call that takes the
  // points in (GkMeansCluster times it itself).
  report.Set("ingest_pts_per_s", static_cast<double>(n) / (Mean(graph_s) * scale));
  report.Set("window_p50_ms", Mean(epoch_p50_ms) * scale);
  report.Set("e2e.window_p99_ms", Quantile(epoch_s, 0.99) * 1e3);

  report.Set("insert_p50_us", Mean(probes.insert_p50_us) * scale);
  report.Set("search_p50_us", Mean(probes.search_p50_us) * scale);
  report.Set("e2e.search_p99_us", Median(probes.search_p99_us));
  report.Set("search_qps",
             static_cast<double>(probes.searches) / (probes.search_wall_s * scale));
  report.Set("search_recall10", Median(probes.recall10));

  if (!cfg.trace) return;
  // --- per-layer metrics (traced repetitions only) ------------------------
  report.Set("core.graph_build_s", Median(tracer.Durations("core.graph_build")));
  report.Set("core.graph_round_s", Median(tracer.Durations("core.graph_round")));
  report.Set("core.gkmeans_iter_s", Median(traced_epoch_s));
  report.Set("core.gkmeans_init_s", Median(init_s));
  report.Set("core.gkmeans_iters", Median(iters));
  report.Set("core.graph_recall1", Median(recall1));
  report.Set("bench.span_coverage", tracer.Coverage("bench.cluster"));
  std::vector<double> overhead_pct;
  for (std::size_t i = 0; i < traced_s.size() && i < untraced_s.size(); ++i) {
    overhead_pct.push_back((traced_s[i] / untraced_s[i] - 1.0) * 100.0);
  }
  report.Set("bench.trace_overhead_pct", Median(overhead_pct));
}

}  // namespace gkb
