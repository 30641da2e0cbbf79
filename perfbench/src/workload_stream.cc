// Copyright 2026 The gkmeans Authors.
// stream_churn: the `stream` write path alone. An in-process
// StreamingGkMeans (one shard, fp32, 4 ingest threads) takes a closed
// loop of fixed-size windows from a 64-mode GMM at d=32. Every op is
// journaled through StreamDeltaLog before it is applied; each window is
// followed by a few explicit RemovePoint calls; TTL expiry retires old
// windows, so the live corpus is steady; the journal is compacted every
// kCompactEvery windows. `core` and `serve` stay idle.
//
// End-to-end: window_p50/p99_ms (journal + ObserveWindow + removals +
// due compaction), ingest_pts_per_s, insert_p50_us (one ObserveWindow),
// distortion (median E over live points, sampled through the run),
// search_* (in-process search of the live model, sampled through the run,
// recall against exact search over the live corpus), cluster_s (a
// two-epoch Consolidate over a copy of the live model, sampled through the
// run, scaled by the HostSpeed reference: it runs on one thread).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <optional>
#include <string>
#include <unistd.h>

#include "dataset/synthetic.h"
#include "eval/metrics.h"
#include "search_entry.h"
#include "stream/checkpoint.h"
#include "workloads.h"

namespace gkb {
namespace {

constexpr std::size_t kDim = 32;
constexpr std::size_t kModes = 64;
constexpr std::size_t kTopK = 10;
constexpr int kSetupReps = 5;
constexpr std::size_t kRemovesPerWindow = 4;
constexpr std::size_t kCompactEvery = 32;
constexpr std::size_t kProbeEvery = 64;   ///< windows between probe slices
constexpr std::size_t kProbeSlice = 32;   ///< queries per probe slice
constexpr std::size_t kConsolidateEpochs = 2;  ///< epochs per cluster_s sample

struct StreamShape {
  std::size_t window;
  std::size_t ttl;
  std::size_t pool_windows;  ///< distinct windows before the input cycles
};

// One streamed op, recorded for the single-thread replay.
struct Op {
  std::size_t window_index;           ///< pool window ingested
  std::vector<std::uint32_t> removed; ///< ids removed after it
};

gkm::StreamingGkMeansParams Params(const StreamShape& shape, std::uint64_t seed) {
  gkm::StreamingGkMeansParams p;
  p.k = kModes;
  p.kappa = 16;
  p.graph.kappa = 16;
  p.graph.beam_width = 48;
  p.graph.shards = 1;
  p.bootstrap_min = shape.window * shape.ttl / 2;
  p.max_splits_per_window = 4;
  p.ttl_windows = shape.ttl;
  p.ingest_threads = LoadThreads();
  p.seed = seed;
  p.graph.seed = seed + 1;
  return p;
}

// E (Eqn. 4) recomputed from the live vectors and their labels.
double LiveDistortion(const gkm::StreamingGkMeans& model, const gkm::Matrix& pool,
                      const std::vector<std::uint32_t>& row_of_slot,
                      bool* labels_ok) {
  std::vector<std::uint32_t> labels;
  gkm::Matrix live;
  live.Reset(model.points_alive(), kDim);
  std::size_t at = 0;
  *labels_ok = true;
  for (std::uint32_t id = 0; id < model.points_seen(); ++id) {
    if (!model.graph().IsAliveUnlocked(id)) continue;
    const std::uint32_t l = model.labels()[id];
    *labels_ok = *labels_ok && l < kModes && at < live.rows();
    if (!*labels_ok) return 0.0;
    live.SetRow(at++, pool.Row(row_of_slot[id]));
    labels.push_back(l);
  }
  *labels_ok = at == live.rows();
  return *labels_ok ? gkm::AverageDistortion(live, labels, kModes) : 0.0;
}

}  // namespace

void RunStreamChurn(const RunConfig& cfg, Report& report, Tracer& tracer) {
  const StreamShape shape = cfg.tiny ? StreamShape{32, 16, 128}
                                     : StreamShape{64, 64, 1024};
  const std::size_t pool_rows = shape.window * shape.pool_windows;
  const std::size_t warm_windows = 3 * shape.ttl;
  const std::string base = cfg.out_dir + "/stream_" + std::to_string(getpid()) + ".gkmc";
  const std::string delta = cfg.out_dir + "/stream_" + std::to_string(getpid()) + ".gkmd";
  const gkm::StreamingGkMeansParams params = Params(shape, cfg.seed);

  // --- set-up: generate, bootstrap, stream until TTL holds n steady ------
  std::vector<double> setup_s;
  gkm::Matrix pool;
  gkm::Matrix queries;
  std::optional<gkm::StreamingGkMeans> model;
  std::optional<gkm::StreamDeltaLog> log;
  std::vector<std::uint32_t> row_of_slot;
  std::deque<std::vector<std::uint32_t>> recent;  // assigned ids, last ttl windows
  std::size_t next_window = 0;
  std::vector<std::uint32_t> assigned;
  const auto window_rows = [&](std::size_t w) {
    const std::size_t b = (w % shape.pool_windows) * shape.window;
    return gkm::SliceRows(pool, b, b + shape.window);
  };
  const auto note_assigned = [&](std::size_t w) {
    const std::size_t b = (w % shape.pool_windows) * shape.window;
    for (std::size_t i = 0; i < assigned.size(); ++i) {
      if (assigned[i] >= row_of_slot.size()) row_of_slot.resize(assigned[i] + 1);
      row_of_slot[assigned[i]] = static_cast<std::uint32_t>(b + i);
    }
    recent.push_back(assigned);
    if (recent.size() > shape.ttl) recent.pop_front();
  };
  for (int r = 0; r < kSetupReps; ++r) {
    const std::int64_t t0 = NowNs();
    gkm::SyntheticSpec spec;
    spec.n = pool_rows + 1000;
    spec.dim = kDim;
    spec.modes = kModes;
    spec.seed = cfg.seed;
    const gkm::Matrix all = gkm::MakeGaussianMixture(spec).vectors;
    pool = gkm::SliceRows(all, 0, pool_rows);
    queries = gkm::SliceRows(all, pool_rows, all.rows());
    log.reset();
    model.emplace(kDim, params);
    row_of_slot.clear();
    recent.clear();
    for (next_window = 0; next_window < warm_windows; ++next_window) {
      model->ObserveWindow(window_rows(next_window), &assigned);
      note_assigned(next_window);
    }
    log.emplace(base, delta, *model);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  report.Set("setup_s", Median(setup_s));
  report.Check(model->bootstrapped(), "stream_churn: model did not bootstrap in set-up");
  report.Note("rss_reset", ResetPeakRss());

  std::optional<gkm::StreamSnapshot> start_snapshot;
  if (cfg.trace) start_snapshot = model->Snapshot();
  const gkm::obs::RegistrySnapshot reg0 = gkm::obs::MetricsRegistry::Global().Snapshot();

  // --- timed region: closed loop of windows ------------------------------
  std::vector<double> window_ms, traced_window_ms, observe_s, distortion, consolidate_s;
  HostSpeed host;  // around each single-threaded Consolidate sample
  std::vector<double> search_us;
  double search_wall_s = 0.0, recall_hits = 0.0, recall_queries = 0.0;
  double points = 0.0, busy_s = 0.0;
  double moves = 0.0, touched = 0.0, split_merges = 0.0, expired = 0.0;
  std::vector<Op> ops;
  std::size_t probe_at = 0;
  std::uint64_t failed_ops = 0;
  const std::size_t min_windows = cfg.tiny ? 2 * kCompactEvery : 200;
  const std::int64_t start = NowNs();
  for (std::size_t i = 0;; ++i, ++next_window) {
    const double elapsed = static_cast<double>(NowNs() - start) * 1e-9;
    if (i >= min_windows && elapsed >= cfg.seconds) break;
    const gkm::Matrix rows = window_rows(next_window);
    Tracer* t = (cfg.trace && i % 2 == 1) ? &tracer : nullptr;
    Op op{next_window % shape.pool_windows, {}};
    const std::vector<std::uint32_t>& victims_from = recent[recent.size() - shape.ttl / 2];
    const std::int64_t t0 = NowNs();
    double observe = 0.0;
    {
      Span win(t, "bench.window", i);
      {
        Span s(t, "stream.journal_append");
        log->AppendWindow(rows);
      }
      {
        Span s(t, "stream.observe_window");
        const std::int64_t o0 = NowNs();
        model->ObserveWindow(rows, &assigned);
        observe = static_cast<double>(NowNs() - o0) * 1e-9;
      }
      for (std::size_t v = 0; v < kRemovesPerWindow && v < victims_from.size(); ++v) {
        const std::uint32_t id = victims_from[v];
        if (!model->graph().IsAliveUnlocked(id)) {
          ++failed_ops;
          continue;
        }
        {
          Span s(t, "stream.journal_remove");
          log->AppendRemoval(id);
        }
        Span s(t, "stream.remove");
        model->RemovePoint(id);
        op.removed.push_back(id);
      }
      if ((i + 1) % kCompactEvery == 0) {
        Span s(t, "stream.compact");
        log->Compact(*model);
      }
    }
    const double ms = static_cast<double>(NowNs() - t0) * 1e-6;
    (t == nullptr ? window_ms : traced_window_ms).push_back(ms);
    if (t == nullptr) {
      busy_s += ms * 1e-3;
      points += static_cast<double>(rows.rows());
      observe_s.push_back(observe);
    }
    report.AddOps(1 + op.removed.size(), 0);
    note_assigned(next_window);
    const gkm::WindowStats& ws = model->history().back();
    moves += static_cast<double>(ws.moves);
    touched += static_cast<double>(ws.touched);
    split_merges += static_cast<double>(ws.split_merges);
    expired += static_cast<double>(ws.expired);
    ops.push_back(std::move(op));

    // Probe slice of the live model, between windows and off the clock.
    if ((i + 1) % kProbeEvery == 0) {
      distortion.push_back(model->Distortion());
      // Full clustering epochs over the live corpus, on a copy so the
      // stream itself is untouched.
      gkm::StreamingGkMeans copy = gkm::StreamingGkMeans::FromSnapshot(model->Snapshot());
      host.Sample();
      const std::int64_t c0 = NowNs();
      copy.Consolidate(kConsolidateEpochs);
      consolidate_s.push_back(static_cast<double>(NowNs() - c0) * 1e-9);
      host.Sample();
      gkm::Matrix slice;
      slice.Reset(kProbeSlice, kDim);
      std::vector<std::uint32_t> ids;
      gkm::Matrix live;
      live.Reset(model->points_alive(), kDim);
      for (std::uint32_t id = 0; id < model->points_seen(); ++id) {
        if (!model->graph().IsAliveUnlocked(id)) continue;
        live.SetRow(ids.size(), pool.Row(row_of_slot[id]));
        ids.push_back(id);
      }
      for (std::size_t q = 0; q < kProbeSlice; ++q) {
        slice.SetRow(q, queries.Row(probe_at++ % queries.rows()));
      }
      gkm::SearchScratch scratch;
      const ProbeRun probe = RunProbe(slice, [&](const float* q) {
        return SearchModel(*model, q, kTopK, scratch);
      });
      search_us.insert(search_us.end(), probe.us.begin(), probe.us.end());
      search_wall_s += probe.wall_s;
      recall_hits += RecallAtK(probe.results, ExactTopK(live, ids, slice, kTopK), kTopK) *
                     static_cast<double>(kProbeSlice);
      recall_queries += static_cast<double>(kProbeSlice);
      report.AddOps(kProbeSlice, 0);
    }
  }
  const std::size_t windows = ops.size();
  const gkm::obs::RegistrySnapshot reg1 = gkm::obs::MetricsRegistry::Global().Snapshot();
  report.Set("peak_rss_mb", PeakRssMb());

  report.Set("window_p50_ms", Quantile(window_ms, 0.5));
  report.Set("e2e.window_p99_ms", Quantile(window_ms, 0.99));
  report.Set("ingest_pts_per_s", points / busy_s);
  report.Set("insert_p50_us", Median(observe_s) * 1e6);
  report.Set("distortion", Median(distortion));
  report.Set("search_p50_us", Quantile(search_us, 0.5));
  report.Set("e2e.search_p99_us", Quantile(search_us, 0.99));
  report.Set("search_qps", static_cast<double>(search_us.size()) / search_wall_s);
  report.Set("search_recall10", recall_hits / recall_queries);
  report.AddOps(0, failed_ops);
  report.Check(failed_ops == 0, "stream_churn: a chosen removal id was not alive");

  // --- output checks ------------------------------------------------------
  bool labels_ok = false;
  const double e = LiveDistortion(*model, pool, row_of_slot, &labels_ok);
  report.Check(labels_ok, "stream_churn: live labels out of range");
  report.Check(std::fabs(e - model->Distortion()) <= 1e-6 * std::max(1e-12, e),
               "stream_churn: recomputed E differs from the model's E");
  report.Check(model->points_alive() <= shape.window * shape.ttl,
               "stream_churn: TTL did not bound the live corpus");
  // Base + journal must resume to exactly the live model.
  {
    const gkm::StreamingGkMeans resumed = gkm::ResumeStreamCheckpoint(base, delta);
    report.Check(resumed.labels() == model->labels() &&
                     resumed.Distortion() == model->Distortion(),
                 "stream_churn: journal resume differs from the live model");
  }

  if (cfg.trace) {
    // Single-thread replay of the same ops from the timed region's start:
    // the determinism contract says it yields the same model.
    gkm::StreamSnapshot snap = std::move(*start_snapshot);
    snap.params.ingest_threads = 1;
    gkm::StreamingGkMeans replay = gkm::StreamingGkMeans::FromSnapshot(std::move(snap));
    double replay_observe_s = 0.0;
    for (const Op& op : ops) {
      const std::size_t b = op.window_index * shape.window;
      const gkm::Matrix rows = gkm::SliceRows(pool, b, b + shape.window);
      const std::int64_t o0 = NowNs();
      replay.ObserveWindow(rows);
      replay_observe_s += static_cast<double>(NowNs() - o0) * 1e-9;
      for (std::uint32_t id : op.removed) replay.RemovePoint(id);
    }
    report.Check(replay.labels() == model->labels() &&
                     replay.Distortion() == model->Distortion(),
                 "stream_churn: 1-thread replay differs from the 4-thread run");
    const std::vector<double> traced_observe = tracer.Durations("stream.observe_window");
    const double four_s = Sum(observe_s) + Sum(traced_observe);
    report.Set("stream.ingest_speedup_4v1", replay_observe_s / four_s);
    report.Set("stream.observe_window_ms", Median(traced_observe) * 1e3);
    report.Set("stream.ingest.walk_us", HistogramMeanDelta(reg0, reg1, "stream.ingest.walk_us"));
    report.Set("stream.ingest.commit_us",
               HistogramMeanDelta(reg0, reg1, "stream.ingest.commit_us"));
    report.Set("stream.remove_us", Median(tracer.Durations("stream.remove")) * 1e6);
    report.Set("stream.journal_append_us",
               Median(tracer.Durations("stream.journal_append")) * 1e6);
    report.Set("stream.compact_ms", Median(tracer.Durations("stream.compact")) * 1e3);
    report.Set("stream.checkpoint_bytes", static_cast<double>(log->base_bytes()));
    report.Set("stream.moves_per_point", moves / (static_cast<double>(windows * shape.window)));
    report.Set("stream.touched_per_point",
               touched / (static_cast<double>(windows * shape.window)));
    report.Set("stream.split_merges", split_merges / static_cast<double>(windows));
    report.Set("stream.expired", expired / static_cast<double>(windows));
    report.Set("stream.live_num_seeds",
               static_cast<double>(model->graph().shard(0).live_num_seeds()));
    report.Set("bench.span_coverage", tracer.Coverage("bench.window"));
    report.Set("bench.trace_overhead_pct",
               (Median(traced_window_ms) / Median(window_ms) - 1.0) * 100.0);
  }

  report.Set("cluster_s", Mean(consolidate_s) * host.Scale());

  log.reset();
  std::remove(base.c_str());
  std::remove(delta.c_str());
}

}  // namespace gkb
