// Copyright 2026 The gkmeans Authors.
// serve_mixed: an in-process serve::Server on loopback — SIFT-like d=128
// data, SQ8 arena, routed placement, S=4 — preloaded to a fixed corpus,
// then driven through at most 4 connections: kSearchClients search
// clients and one ingest client whose inserts are balanced by removes of
// points it inserted earlier, so the live n stays constant. BatchPolicy,
// read_replicas and search_workers keep their defaults.
//
//   phase 1: open loop at a fixed total rate the daemon sustains without
//            backlog, each request timed from its due time
//            (search_p50/p99_us)
//   phase 2: closed loop, back-to-back requests (search_qps)
//
// The ingest client runs paced through both phases (insert_p50_us,
// window_p50/p99_ms for one insert + its balancing removes). After them
// it sends closed-loop bursts of larger inserts, each balanced by removes
// as before, with no search load (ingest_pts_per_s: rows acknowledged per
// second of burst). Then the daemon answers a fixed probe set
// (search_recall10 against exact search over the live corpus), shuts
// down into its checkpoint, and the restored model gives distortion and
// cluster_s (a three-epoch Consolidate, scaled by the HostSpeed reference)
// plus the stream read-path metrics.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>

#include "common/distance.h"
#include "common/rng.h"
#include "dataset/synthetic.h"
#include "graph/brute_force.h"
#include "search_entry.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stream/checkpoint.h"
#include "workloads.h"

namespace gkb {
namespace {

using gkm::serve::Client;

constexpr std::size_t kDim = 128;
constexpr std::uint32_t kTopK = 10;
constexpr int kSetupReps = 3;
constexpr std::size_t kSearchClients = 3;
constexpr std::size_t kPreloadWindow = 500;
// One 4-row insert + its removes per 20 ms: >= 1000 windows in a run, so
// window_p99_ms has >= 10 samples beyond it. The removal rate sets how
// often a shard purges its tombstones (a stall of its readers and its
// writer); at 200 removals/s that is about one purge per 5 s, in well
// under 1% of windows and under half of the seconds, so neither p99
// jumps between runs with and without a purge at its rank.
constexpr std::size_t kIngestRows = 4;
constexpr double kIngestPeriodS = 0.02;
// Closed-loop ingest bursts after the search phases: kBursts bursts of
// kBurstWindows inserts of kBurstRows rows; ingest_pts_per_s is the median
// burst rate. About 3 s of bursts, so one slow second of a shared host
// moves the median little.
constexpr std::size_t kBurstRows = 64;
constexpr std::size_t kBurstWindows = 16;
constexpr std::size_t kBursts = 12;
// Phase-1 generator health: the run is flagged as backlogged when the p90
// lateness of sends exceeds this share of one client's inter-arrival gap.
// (The p99 is not used: the daemon's own stalls of a few milliseconds,
// e.g. a shard purging its tombstones, delay the next sends of every
// client, and the open loop charges them to latency from the due time.)
constexpr double kMaxLateShare = 0.25;
constexpr std::uint32_t kNoRow = 0xffffffffu;
constexpr std::size_t kPoolFactor = 4;
constexpr std::size_t kConsolidateEpochs = 3;  ///< epochs per cluster_s sample
constexpr double kConsolidateSeconds = 2.0;    ///< least time spent on cluster_s samples

struct ServeShape {
  std::size_t corpus;       ///< preloaded live points
  std::size_t probes;       ///< recall probe queries
  double open_loop_qps;     ///< phase-1 total search rate
};

gkm::serve::ServerOptions Options(const std::string& base, const std::string& journal,
                                  std::uint64_t seed) {
  gkm::serve::ServerOptions o;
  o.dim = kDim;
  o.params.k = 64;
  o.params.bootstrap_min = 2000;
  o.params.graph.shards = 4;
  o.params.graph.storage = gkm::StorageMode::kSq8;
  o.params.graph.bootstrap = 1024;  // quantizer training sample
  o.params.routed_placement = true;
  // Split/merge and drift handling stay off: with them on, relabelled
  // clusters set off migration sweeps and whole-arena SQ8 requantization
  // whose volume differs by seed by more than 5x, so the serving path
  // would not be measured on a stationary model.
  o.params.max_splits_per_window = 0;
  o.params.drift_threshold = 0.0;
  o.params.ingest_threads = LoadThreads();
  o.params.seed = seed;
  o.params.graph.seed = seed + 1;
  o.checkpoint_base = base;
  o.checkpoint_journal = journal;
  return o;
}

// Client-side tallies, compared with the server's Stats() at the end.
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> search_rows_ok{0};
  std::atomic<std::uint64_t> inserts_ok{0};
  std::atomic<std::uint64_t> removed_ok{0};
  std::atomic<std::uint64_t> refused{0};
  std::atomic<std::uint64_t> transport{0};
  std::atomic<std::uint64_t> wrong{0};
  std::atomic<std::uint64_t> stale{0};  ///< removes naming a renumbered id
};

// A well-formed answer: topk results, ascending distance, no repeated id.
// (Equal distances are not required to come in id order: the routed SQ8
// path does not keep that documented tie order.)
bool WellFormed(const std::vector<gkm::Neighbor>& got) {
  if (got.size() != kTopK) return false;
  for (std::size_t i = 1; i < got.size(); ++i) {
    if (got[i].dist < got[i - 1].dist) return false;
    for (std::size_t j = 0; j < i; ++j) {
      if (got[j].id == got[i].id) return false;
    }
  }
  return true;
}

// Per-RPC protocol cost of one search, measured on the benchmark's own
// calls: request + response encode, and frame parse + decode of both.
// Returns the median client-side part (request encode + response decode);
// the server-side parts run inside serve.frame and serve.batcher.flush.
double MeasureProtocol(const gkm::Matrix& queries,
                       const std::vector<std::vector<gkm::Neighbor>>& answers,
                       Report& report) {
  std::vector<double> encode_us, decode_us, client_us;
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      std::vector<std::uint8_t> req_bytes, resp_bytes;
      const std::int64_t e0 = NowNs();
      gkm::serve::AppendFrame(req_bytes,
                              gkm::serve::MakeSearchRequest(q + 1, kTopK, queries.Row(q), kDim));
      const std::int64_t e1 = NowNs();
      gkm::serve::SearchResponse resp;
      resp.results = {answers[q]};
      gkm::serve::AppendFrame(resp_bytes, gkm::serve::MakeSearchResponse(q + 1, false, resp));
      const std::int64_t e2 = NowNs();
      gkm::serve::FrameParser parser;
      gkm::serve::Frame frame;
      gkm::serve::SearchRequest req_back;
      gkm::serve::SearchResponse resp_back;
      parser.Feed(req_bytes.data(), req_bytes.size());
      bool ok = parser.Next(&frame) == gkm::serve::FrameParser::Status::kFrame &&
                gkm::serve::DecodeSearchRequest(frame, &req_back) == nullptr;
      const std::int64_t e3 = NowNs();
      parser.Feed(resp_bytes.data(), resp_bytes.size());
      ok = ok && parser.Next(&frame) == gkm::serve::FrameParser::Status::kFrame &&
           gkm::serve::DecodeSearchResponse(frame, &resp_back) == nullptr;
      const std::int64_t e4 = NowNs();
      report.Check(ok && resp_back.results.size() == 1 &&
                       resp_back.results[0].size() == answers[q].size(),
                   "serve_mixed: protocol round trip failed");
      encode_us.push_back(static_cast<double>(e2 - e0) * 1e-3);
      decode_us.push_back(static_cast<double>(e4 - e2) * 1e-3);
      client_us.push_back(static_cast<double>((e1 - e0) + (e4 - e3)) * 1e-3);
    }
  }
  report.Set("serve.protocol.encode_us", Median(encode_us));
  report.Set("serve.protocol.decode_us", Median(decode_us));
  return Median(client_us);
}

// Median over whole seconds of a per-second statistic: samples are binned
// by the second they fell in, bins with fewer than `min_samples` are
// dropped, and `stat` of each kept bin enters the median. One stalled
// second of a shared host then moves the figure little. Falls back to
// `stat` of all samples when no bin qualifies (short self-test runs).
template <typename Stat>
double MedianPerSecond(const std::vector<double>& values,
                       const std::vector<std::size_t>& second, std::size_t min_samples,
                       Stat stat) {
  std::vector<std::vector<double>> bins;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (second[i] >= bins.size()) bins.resize(second[i] + 1);
    bins[second[i]].push_back(values[i]);
  }
  std::vector<double> per_second;
  for (const std::vector<double>& bin : bins) {
    if (bin.size() >= min_samples) per_second.push_back(stat(bin));
  }
  return per_second.empty() ? stat(values) : Median(per_second);
}

// SIFT-like rows drawn at random from a kPoolFactor times larger generated
// set: the generator's mode count grows with its n (n/400), and many modes
// keep the workload's behaviour comparable across seeds.
gkm::Matrix DrawRows(std::size_t n, std::uint64_t seed) {
  const gkm::Matrix pool = gkm::MakeSiftLike(kPoolFactor * n, kDim, seed).vectors;
  std::vector<std::uint32_t> rows(pool.rows());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<std::uint32_t>(i);
  gkm::Rng rng(seed ^ 0x5eedULL);
  rng.Shuffle(rows);
  gkm::Matrix out(n, kDim);
  for (std::size_t i = 0; i < n; ++i) out.SetRow(i, pool.Row(rows[i]));
  return out;
}

// The live corpus as the daemon holds it: each live id with its row.
struct LiveCorpus {
  std::vector<std::uint32_t> ids;
  gkm::Matrix rows;
};

// Maps every live id of the restored `model` to the data row it stores.
// An id the client was handed is confirmed when the stored (SQ8-decoded)
// coordinates match its row; ids the daemon gave rows it migrated to their
// home shard are matched to the still unclaimed inserted rows [0, inserted)
// by exact nearest-row search. SQ8 reproduces a row to within a few
// grid steps per coordinate (more where a value falls outside the
// quantizer's trained range), far below the distance between two rows.
LiveCorpus Reconcile(const gkm::StreamingGkMeans& model, const gkm::Matrix& data,
                     const std::vector<std::uint32_t>& row_of_id, std::size_t inserted,
                     Report& report) {
  const float tol = 16.0f * static_cast<float>(kDim);
  LiveCorpus out;
  std::vector<std::uint32_t> row_of_live;
  std::vector<std::uint8_t> claimed(inserted, 0);
  std::vector<std::uint32_t> unknown;  // indexes into out.ids
  for (std::uint32_t g = 0; g < model.points_seen(); ++g) {
    if (!model.graph().IsAliveUnlocked(g)) continue;
    const std::uint32_t row = g < row_of_id.size() ? row_of_id[g] : kNoRow;
    std::uint32_t match = kNoRow;
    if (row != kNoRow && claimed[row] == 0) {
      const float d2 = gkm::L2Sqr(model.graph().Point(g), data.Row(row), kDim);
      if (d2 <= tol) match = row;
    }
    if (match == kNoRow) {
      unknown.push_back(static_cast<std::uint32_t>(out.ids.size()));
    } else {
      claimed[match] = 1;
    }
    out.ids.push_back(g);
    row_of_live.push_back(match);
  }
  if (!unknown.empty()) {
    std::vector<std::uint32_t> free_rows;
    for (std::uint32_t r = 0; r < inserted; ++r) {
      if (claimed[r] == 0) free_rows.push_back(r);
    }
    gkm::Matrix base, stored;
    base.Reset(free_rows.size(), kDim);
    for (std::size_t i = 0; i < free_rows.size(); ++i) base.SetRow(i, data.Row(free_rows[i]));
    stored.Reset(unknown.size(), kDim);
    for (std::size_t i = 0; i < unknown.size(); ++i) {
      stored.SetRow(i, model.graph().Point(out.ids[unknown[i]]));
    }
    const auto nearest = gkm::BruteForceSearch(base, stored, 2);
    for (std::size_t i = 0; i < unknown.size(); ++i) {
      // Unambiguous only: the nearest row must be far closer than the next.
      if (nearest[i].size() == 2 && nearest[i][0].dist <= 0.5f * nearest[i][1].dist) {
        row_of_live[unknown[i]] = free_rows[nearest[i][0].id];
      }
    }
  }
  bool all = true;
  out.rows.Reset(out.ids.size(), kDim);
  for (std::size_t i = 0; i < out.ids.size(); ++i) {
    all = all && row_of_live[i] != kNoRow;
    if (row_of_live[i] != kNoRow) out.rows.SetRow(i, data.Row(row_of_live[i]));
  }
  report.Check(all, "serve_mixed: a live point matches no inserted row");
  std::fprintf(stderr, "  serve_mixed: %zu of %zu live ids were renumbered by the daemon\n",
               unknown.size(), out.ids.size());
  return out;
}

}  // namespace

void RunServeMixed(const RunConfig& cfg, Report& report, Tracer& tracer) {
  const ServeShape shape = cfg.tiny ? ServeShape{3000, 100, 300.0}
                                    : ServeShape{16000, 500, 1200.0};
  const std::size_t ingest_windows =
      static_cast<std::size_t>(std::ceil(cfg.seconds / kIngestPeriodS)) + 16;
  const std::size_t pool_begin = shape.corpus;  // paced ingest rows
  const std::size_t burst_begin = pool_begin + ingest_windows * kIngestRows;
  const std::size_t burst_end = burst_begin + kBursts * kBurstWindows * kBurstRows;
  const std::size_t total_rows = burst_end + shape.probes;
  const std::string stem = cfg.out_dir + "/serve_" + std::to_string(getpid());
  const std::string base = stem + ".gkmc";
  const std::string journal = stem + ".gkmd";
  Tally tally;

  // --- set-up: generate, start the daemon, preload the corpus ------------
  std::vector<double> setup_s;
  gkm::Matrix data;  // corpus, paced ingest rows, burst rows, then probes
  std::unique_ptr<gkm::serve::Server> server;
  std::vector<std::unique_ptr<Client>> clients;  // search clients + ingest client
  std::vector<std::uint32_t> row_of_id;          // global id -> data row
  for (int r = 0; r < kSetupReps; ++r) {
    if (server != nullptr) {
      clients.clear();
      server->Shutdown();
      server.reset();
    }
    std::remove(base.c_str());
    std::remove(journal.c_str());
    row_of_id.clear();
    const std::int64_t t0 = NowNs();
    data = DrawRows(total_rows, cfg.seed);
    std::string error;
    server = gkm::serve::Server::Start(Options(base, journal, cfg.seed), &error);
    if (server == nullptr) {
      report.Check(false, "serve_mixed: server start failed: " + error);
      return;
    }
    for (std::size_t c = 0; c <= kSearchClients; ++c) {
      clients.push_back(Client::Connect(server->port(), &error));
      if (clients.back() == nullptr) {
        report.Check(false, "serve_mixed: connect failed: " + error);
        return;
      }
    }
    Client& ingest = *clients.back();
    for (std::size_t b = 0; b < shape.corpus; b += kPreloadWindow) {
      std::vector<std::uint32_t> assigned;
      const std::size_t e = std::min(b + kPreloadWindow, shape.corpus);
      if (ingest.Insert(gkm::SliceRows(data, b, e), &assigned) != Client::Status::kOk) {
        report.Check(false, "serve_mixed: preload insert failed");
        return;
      }
      for (std::size_t i = 0; i < assigned.size(); ++i) {
        if (assigned[i] >= row_of_id.size()) row_of_id.resize(assigned[i] + 1, kNoRow);
        row_of_id[assigned[i]] = static_cast<std::uint32_t>(b + i);
      }
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  report.Set("setup_s", Median(setup_s));
  const std::uint64_t preload_windows = (shape.corpus + kPreloadWindow - 1) / kPreloadWindow;
  tally.attempted += preload_windows;
  tally.inserts_ok += preload_windows;
  report.Note("rss_reset", ResetPeakRss());

  // --- ingest: one insert, then removes balancing it ---------------------
  // Inserts data rows [b, b + rows), then removes as many points this
  // client inserted earlier, oldest first, so the preloaded corpus stays
  // and the live n stays constant. Routed placement moves rows to their
  // cluster's home shard under a new id, so a held id can go stale: the
  // daemon answers 0 for it and the client removes the next one (`owed`
  // carries any shortfall). Returns the insert RPC's microseconds, or a
  // negative value when the insert failed; `transport` reports a broken
  // connection. Used by one thread at a time.
  std::deque<std::uint32_t> recent;  // ids this client inserted, oldest first
  std::size_t owed = 0;              // removals owed to keep n constant
  const auto insert_balanced = [&](Client& c, std::size_t b, std::size_t rows,
                                   bool* transport) {
    std::vector<std::uint32_t> assigned;
    ++tally.attempted;
    const std::int64_t s0 = NowNs();
    const Client::Status st = c.Insert(gkm::SliceRows(data, b, b + rows), &assigned);
    const std::int64_t s1 = NowNs();
    if (st != Client::Status::kOk) {
      ++(st == Client::Status::kRefused ? tally.refused : tally.transport);
      *transport = st == Client::Status::kTransport;
      return -1.0;
    }
    ++tally.inserts_ok;
    for (std::size_t i = 0; i < assigned.size(); ++i) {
      if (assigned[i] >= row_of_id.size()) row_of_id.resize(assigned[i] + 1, kNoRow);
      row_of_id[assigned[i]] = static_cast<std::uint32_t>(b + i);
    }
    owed += assigned.size();
    for (int attempt = 0; owed > 0 && !recent.empty() && attempt < 16; ++attempt) {
      const std::size_t take = std::min(owed, recent.size());
      const std::vector<std::uint32_t> doomed(
          recent.begin(), recent.begin() + static_cast<std::ptrdiff_t>(take));
      recent.erase(recent.begin(), recent.begin() + static_cast<std::ptrdiff_t>(take));
      std::vector<std::uint8_t> removed;
      ++tally.attempted;
      const Client::Status rs = c.Remove(doomed, &removed);
      if (rs != Client::Status::kOk) {
        ++(rs == Client::Status::kRefused ? tally.refused : tally.transport);
        *transport = rs == Client::Status::kTransport;
        if (*transport) break;
        continue;
      }
      if (removed.size() != doomed.size()) {
        ++tally.wrong;
        std::fprintf(stderr, "  serve_mixed: remove answered %zu flags for %zu ids\n",
                     removed.size(), doomed.size());
      }
      const auto ok = static_cast<std::size_t>(
          std::count(removed.begin(), removed.end(), std::uint8_t{1}));
      tally.removed_ok += ok;
      tally.stale += doomed.size() - ok;
      owed -= std::min(owed, ok);
    }
    recent.insert(recent.end(), assigned.begin(), assigned.end());
    return static_cast<double>(s1 - s0) * 1e-3;
  };

  // --- load phases ---------------------------------------------------------
  // Phase 1 gets the larger share: its latency percentiles need samples.
  const double open_s = 0.6 * cfg.seconds;
  const double closed_phase_s = cfg.seconds - open_s;
  std::atomic<bool> ingest_stop{false};
  std::vector<double> insert_us, window_ms;
  // Paced ingest client: every kIngestPeriodS one kIngestRows insert and
  // its balancing removes, through both search phases.
  std::thread ingester([&] {
    Client& c = *clients.back();
    const std::int64_t t_start = NowNs();
    for (std::size_t w = 0; w < ingest_windows && !ingest_stop.load(); ++w) {
      const std::int64_t due =
          t_start + static_cast<std::int64_t>(static_cast<double>(w) * kIngestPeriodS * 1e9);
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due)));
      const std::int64_t w0 = NowNs();
      bool transport = false;
      const double us = insert_balanced(c, pool_begin + w * kIngestRows, kIngestRows, &transport);
      if (transport) return;
      if (us < 0.0) continue;
      insert_us.push_back(us);
      window_ms.push_back(static_cast<double>(NowNs() - w0) * 1e-6);
    }
  });

  const gkm::obs::RegistrySnapshot reg0 = gkm::obs::MetricsRegistry::Global().Snapshot();
  // Phase 1: open loop. Client c sends request j at due(c, j); latency is
  // measured from the due time, lateness from due to the actual send.
  // Phase 2: closed loop; each client records the second its requests
  // completed in.
  const double per_client_qps = shape.open_loop_qps / kSearchClients;
  std::vector<std::vector<double>> lat_us(kSearchClients), late_us(kSearchClients),
      traced_lat_us(kSearchClients);
  // Second of the phase each sample fell in: due second of lat_us in
  // phase 1, completion second in phase 2.
  std::vector<std::vector<std::size_t>> lat_second(kSearchClients),
      done_second(kSearchClients);
  std::vector<std::size_t> next_query(kSearchClients, 0);
  // Queries walk the rows after the corpus (ingest rows and probes).
  const std::size_t query_rows = total_rows - shape.corpus;
  const auto run_phase = [&](bool open_loop, double phase_s) {
    std::vector<std::thread> threads;
    const std::int64_t p0 = NowNs();
    const std::int64_t p_end = p0 + static_cast<std::int64_t>(phase_s * 1e9);
    for (std::size_t c = 0; c < kSearchClients; ++c) {
      threads.emplace_back([&, c] {
        Client& client = *clients[c];
        for (std::uint64_t j = 0;; ++j) {
          std::int64_t due = NowNs();
          if (open_loop) {
            due = p0 + static_cast<std::int64_t>(
                           (static_cast<double>(j) + static_cast<double>(c) / kSearchClients) /
                           per_client_qps * 1e9);
            if (due >= p_end) break;
            std::this_thread::sleep_until(
                std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due)));
          } else if (due >= p_end) {
            break;
          }
          const std::size_t row =
              total_rows - 1 - (next_query[c]++ * kSearchClients + c) % query_rows;
          const std::int64_t send = NowNs();
          Tracer* t = (cfg.trace && open_loop && j % 2 == 1) ? &tracer : nullptr;
          std::vector<gkm::Neighbor> got;
          ++tally.attempted;
          Client::Status st;
          {
            Span s(t, "bench.search_rpc", (static_cast<std::uint64_t>(c) << 48) | j);
            st = client.Search(data.Row(row), kDim, kTopK, &got);
          }
          const std::int64_t done = NowNs();
          if (st != Client::Status::kOk) {
            ++(st == Client::Status::kRefused ? tally.refused : tally.transport);
            if (st == Client::Status::kTransport) return;
            continue;
          }
          ++tally.search_rows_ok;
          if (!WellFormed(got)) {
            ++tally.wrong;
            std::fprintf(stderr, "  serve_mixed: malformed answer to row %zu:", row);
            for (const gkm::Neighbor& nb : got) std::fprintf(stderr, " %u:%.9g", nb.id, nb.dist);
            std::fprintf(stderr, "\n");
          }
          if (open_loop) {
            if (t == nullptr) {
              lat_us[c].push_back(static_cast<double>(done - due) * 1e-3);
              lat_second[c].push_back(static_cast<std::size_t>((due - p0) / 1000000000));
            } else {
              traced_lat_us[c].push_back(static_cast<double>(done - due) * 1e-3);
            }
            late_us[c].push_back(static_cast<double>(send - due) * 1e-3);
          } else if (done < p_end) {
            done_second[c].push_back(static_cast<std::size_t>((done - p0) / 1000000000));
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
  };
  run_phase(true, open_s);
  const gkm::obs::RegistrySnapshot reg1 = gkm::obs::MetricsRegistry::Global().Snapshot();
  run_phase(false, closed_phase_s);
  ingest_stop.store(true);
  ingester.join();
  const gkm::obs::RegistrySnapshot reg2 = gkm::obs::MetricsRegistry::Global().Snapshot();

  // Closed-loop ingest bursts, no search load.
  std::vector<double> burst_rate;
  for (std::size_t r = 0; r < kBursts && tally.transport.load() == 0; ++r) {
    const std::int64_t b0 = NowNs();
    std::size_t rows_ok = 0;
    for (std::size_t w = 0; w < kBurstWindows; ++w) {
      bool transport = false;
      const std::size_t b = burst_begin + (r * kBurstWindows + w) * kBurstRows;
      if (insert_balanced(*clients.back(), b, kBurstRows, &transport) >= 0.0) {
        rows_ok += kBurstRows;
      }
      if (transport) break;
    }
    burst_rate.push_back(static_cast<double>(rows_ok) /
                         (static_cast<double>(NowNs() - b0) * 1e-9));
  }

  std::vector<double> lat, late, traced_lat, lat_sec;
  std::vector<std::size_t> lat_bin;
  std::vector<double> qps_per_second(static_cast<std::size_t>(closed_phase_s), 0.0);
  std::size_t closed_done = 0;
  for (std::size_t c = 0; c < kSearchClients; ++c) {
    lat.insert(lat.end(), lat_us[c].begin(), lat_us[c].end());
    lat_bin.insert(lat_bin.end(), lat_second[c].begin(), lat_second[c].end());
    late.insert(late.end(), late_us[c].begin(), late_us[c].end());
    traced_lat.insert(traced_lat.end(), traced_lat_us[c].begin(), traced_lat_us[c].end());
    closed_done += done_second[c].size();
    for (std::size_t sec : done_second[c]) {
      if (sec < qps_per_second.size()) qps_per_second[sec] += 1.0;
    }
  }
  // Median over seconds of phase 1 of the per-second p50 (p99: >= 10
  // samples beyond it in each second).
  report.Set("search_p50_us", MedianPerSecond(lat, lat_bin, 20, [](std::vector<double> v) {
               return Quantile(std::move(v), 0.5);
             }));
  report.Set("e2e.search_p99_us", MedianPerSecond(lat, lat_bin, 100, [](std::vector<double> v) {
               return Quantile(std::move(v), 0.99);
             }));
  // Completed searches per whole second of phase 2, median over seconds.
  report.Set("search_qps", qps_per_second.empty()
                               ? static_cast<double>(closed_done) / closed_phase_s
                               : Median(qps_per_second));
  report.Set("insert_p50_us", Median(insert_us));
  report.Set("window_p50_ms", Quantile(window_ms, 0.5));
  report.Set("e2e.window_p99_ms", Quantile(window_ms, 0.99));
  report.Set("ingest_pts_per_s", Median(burst_rate));

  // Generator health: the open loop must keep its schedule, or phase-1
  // latency measures the client's own backlog. Phase-2 capacity is noted
  // next to the open-loop rate it must exceed.
  const double late_p90_us = Quantile(late, 0.9);
  const double gap_us = 1e6 / per_client_qps;
  report.Note("gen_late_p50_us", Quantile(late, 0.5));
  report.Note("gen_late_p90_us", late_p90_us);
  report.Note("gen_late_p99_us", Quantile(late, 0.99));
  report.Note("interarrival_us", gap_us);
  report.Note("open_loop_qps", shape.open_loop_qps);
  report.Note("closed_loop_qps", report.Get("search_qps"));
  report.Note("open_loop_backlog", late_p90_us > kMaxLateShare * gap_us);
  if (late_p90_us > kMaxLateShare * gap_us) {
    std::fprintf(stderr,
                 "gkbench: WARNING: serve_mixed open loop fell behind (p90 lateness %.0f us "
                 "of a %.0f us gap); search_p50_us includes client backlog\n",
                 late_p90_us, gap_us);
  }

  // --- probe set, tallies, shutdown ----------------------------------------
  const gkm::Matrix probes = gkm::SliceRows(data, total_rows - shape.probes, total_rows);
  std::vector<std::vector<gkm::Neighbor>> daemon_answers;
  Client& c0 = *clients.front();
  for (std::size_t b = 0; b < shape.probes; b += 100) {
    std::vector<std::vector<gkm::Neighbor>> part;
    ++tally.attempted;
    const Client::Status st =
        c0.BatchSearch(gkm::SliceRows(probes, b, std::min(b + 100, shape.probes)), kTopK, &part);
    if (st != Client::Status::kOk) {
      ++(st == Client::Status::kRefused ? tally.refused : tally.transport);
      report.Check(false, "serve_mixed: probe search failed");
      return;
    }
    tally.search_rows_ok += part.size();
    daemon_answers.insert(daemon_answers.end(), part.begin(), part.end());
  }
  for (const auto& a : daemon_answers) {
    if (!WellFormed(a)) {
      ++tally.wrong;
      std::fprintf(stderr, "  serve_mixed: malformed probe answer\n");
    }
  }

  gkm::serve::StatsResponse stats;
  report.Check(c0.GetStats(&stats) == Client::Status::kOk, "serve_mixed: stats rpc failed");
  report.Check(stats.searches == tally.search_rows_ok.load(),
               "serve_mixed: server search count disagrees with client tally");
  report.Check(stats.inserts == tally.inserts_ok.load(),
               "serve_mixed: server insert count disagrees with client tally");
  report.Check(stats.removes == tally.removed_ok.load(),
               "serve_mixed: server remove count disagrees with client tally");
  report.Check(stats.overloaded == tally.refused.load(),
               "serve_mixed: server refusal count disagrees with client tally");
  report.Check(stats.points_alive == shape.corpus + owed && owed <= 2 * kBurstRows,
               "serve_mixed: live corpus size drifted");
  report.Check(tally.transport.load() == 0 && tally.wrong.load() == 0,
               "serve_mixed: transport failures or wrong answers");
  report.AddOps(tally.attempted.load(),
                tally.refused.load() + tally.transport.load() + tally.wrong.load());
  std::fprintf(stderr, "  serve_mixed: %llu removes named a renumbered id\n",
               static_cast<unsigned long long>(tally.stale.load()));

  clients.clear();
  server->Shutdown();
  server.reset();
  report.Set("peak_rss_mb", PeakRssMb());

  // --- the model restored from the daemon's shutdown checkpoint -----------
  const std::int64_t l0 = NowNs();
  gkm::StreamingGkMeans restored = gkm::LoadStreamCheckpoint(base);
  const double load_s = static_cast<double>(NowNs() - l0) * 1e-9;
  restored.PublishReadState();
  report.Set("distortion", restored.Distortion());

  // Exact top-10 over the live corpus, keyed by the ids the daemon holds.
  const LiveCorpus corpus = Reconcile(restored, data, row_of_id, burst_end, report);
  const std::vector<std::vector<std::uint32_t>> truth =
      ExactTopK(corpus.rows, corpus.ids, probes, kTopK);
  report.Set("search_recall10", RecallAtK(daemon_answers, truth, kTopK));
  bool answers_live = true;
  for (const auto& a : daemon_answers) {
    for (const gkm::Neighbor& nb : a) {
      answers_live = answers_live && nb.id < restored.points_seen() &&
                     restored.graph().IsAliveUnlocked(nb.id);
    }
  }
  report.Check(answers_live, "serve_mixed: the daemon answered with a dead id");
  gkm::SearchScratch scratch;
  const ProbeRun local = RunProbe(probes, [&](const float* q) {
    return SearchModel(restored, q, kTopK, scratch);
  });
  bool same = local.results.size() == daemon_answers.size();
  for (std::size_t q = 0; same && q < local.results.size(); ++q) {
    same = local.results[q].size() == daemon_answers[q].size();
    for (std::size_t i = 0; same && i < local.results[q].size(); ++i) {
      same = local.results[q][i].id == daemon_answers[q][i].id &&
             local.results[q][i].dist == daemon_answers[q][i].dist;
    }
  }
  report.Check(same, "serve_mixed: the restored model answers differently from the daemon");

  if (cfg.trace) {
    report.Set("stream.checkpoint_load_s", load_s);
    report.Set("stream.search_us", Median(local.us));
    report.Set("stream.search_recall10", RecallAtK(local.results, truth, kTopK));
    const double client_protocol_us = MeasureProtocol(probes, daemon_answers, report);
    const double frame = HistogramMeanDelta(reg0, reg1, "serve.frame_us");
    const double flush = HistogramMeanDelta(reg0, reg1, "serve.batcher.flush_us");
    report.Set("serve.frame_us", frame);
    report.Set("serve.batcher.flush_us", flush);
    report.Set("serve.batcher.batch_rows",
               HistogramMeanDelta(reg0, reg1, "serve.batcher.batch_rows"));
    // Per-request terms that do not overlap: the client's request encode
    // and response decode, the server's frame handling (request decode and
    // batcher submit; its mean also covers the ~8% insert and remove
    // frames) and the batch flush the request waits for in full (search,
    // response encode and send; all phase-1 flushes are search flushes).
    // The rest is mostly batcher queue wait. An estimate: means and
    // medians of different samples are added.
    const double covered = client_protocol_us + frame + flush;
    const double p50 = report.Get("search_p50_us");
    report.Set("serve.residual_us", p50 - covered);
    report.Set("bench.span_coverage", covered / p50);
    const double hits = static_cast<double>(CounterDelta(reg0, reg2, "serve.route.hit"));
    const double spills = static_cast<double>(CounterDelta(reg0, reg2, "serve.route.spill"));
    report.Set("serve.route.spill_rate", hits > 0.0 ? spills / hits : 0.0);
    report.Set("serve.ingest.insert_us",
               HistogramMeanDelta(reg0, reg2, "serve.ingest.insert_us"));
    report.Set("bench.gen_late_us", Quantile(late, 0.99));
    report.Set("bench.trace_overhead_pct", (Median(traced_lat) / Median(lat) - 1.0) * 100.0);
  }

  // Full clustering epochs over the live corpus, on fresh copies of the
  // restored model so every sample does the same work; at least 15
  // samples over at least kConsolidateSeconds. Consolidate runs on one
  // thread, so its mean is scaled by the HostSpeed reference.
  std::vector<double> consolidate_s;
  HostSpeed host;
  const gkm::StreamSnapshot snap = restored.Snapshot();
  const double min_s = cfg.tiny ? 0.0 : kConsolidateSeconds;
  for (const std::int64_t c0 = NowNs();
       consolidate_s.size() < 15 || static_cast<double>(NowNs() - c0) * 1e-9 < min_s;) {
    gkm::StreamingGkMeans copy = gkm::StreamingGkMeans::FromSnapshot(snap);
    host.Sample();
    const std::int64_t t0 = NowNs();
    copy.Consolidate(kConsolidateEpochs);
    consolidate_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  host.Sample();
  report.Set("cluster_s", Mean(consolidate_s) * host.Scale());
  std::remove(base.c_str());
  std::remove(journal.c_str());
}

}  // namespace gkb
