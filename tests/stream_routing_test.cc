// Copyright 2026 The gkmeans Authors.
// Tests for cluster-routed shard placement: home-shard invariants after
// ingest/churn/migration, routed-vs-merged search quality, checkpoint
// byte-identity across thread counts and across a save/resume that lands
// mid-migration, replica read equality, and the GKMC v6 round trip.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/synthetic.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "stream/checkpoint.h"
#include "stream/sharded_online_knn_graph.h"
#include "stream/streaming_gkmeans.h"

namespace gkm {
namespace {

constexpr std::size_t kDim = 12;
constexpr std::uint32_t kUnassigned = 0xffffffffu;

SyntheticData StreamData(std::size_t n, std::uint64_t seed = 5) {
  SyntheticSpec spec;
  spec.n = n;
  spec.dim = kDim;
  spec.modes = 15;
  spec.seed = seed;
  return MakeGaussianMixture(spec);
}

StreamingGkMeansParams RoutedParams() {
  StreamingGkMeansParams p;
  p.k = 12;
  p.kappa = 10;
  p.graph.kappa = 10;
  p.graph.beam_width = 32;
  p.graph.num_seeds = 24;
  p.graph.seed = 77;
  p.graph.shards = 4;
  p.bootstrap_min = 400;
  p.seed = 9;
  p.routed_placement = true;
  return p;
}

void Feed(StreamingGkMeans& model, const Matrix& data, std::size_t window) {
  for (std::size_t begin = 0; begin < data.rows(); begin += window) {
    const std::size_t end = std::min(begin + window, data.rows());
    model.ObserveWindow(SliceRows(data, begin, end));
  }
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string bytes;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, got);
  }
  std::fclose(f);
  return bytes;
}

std::uint32_t FileVersion(const std::string& bytes) {
  std::uint32_t v = 0;
  std::memcpy(&v, bytes.data() + 4, sizeof(v));
  return v;
}

TEST(StreamRoutingTest, SearchKnnInShardRejectsOutOfRangeShard) {
  OnlineGraphParams p;
  p.kappa = 8;
  p.beam_width = 24;
  p.shards = 2;
  ShardedOnlineKnnGraph graph(kDim, p);
  const SyntheticData data = StreamData(200);
  ThreadPool pool;
  graph.InsertBatch(data.vectors, &pool);

  SearchScratch scratch;
  const float* q = data.vectors.Row(0);
  const std::optional<std::vector<Neighbor>> ok =
      graph.SearchKnnInShard(1, q, 5, scratch);
  ASSERT_TRUE(ok.has_value());
  EXPECT_FALSE(ok->empty());
  for (std::size_t i = 1; i < ok->size(); ++i) {
    EXPECT_LE((*ok)[i - 1].dist, (*ok)[i].dist);
  }
  // A routing-table bug at the caller must surface as nullopt, not as an
  // answer from the wrong arena (or a crash).
  EXPECT_FALSE(graph.SearchKnnInShard(2, q, 5, scratch).has_value());
  EXPECT_FALSE(graph.SearchKnnInShard(57, q, 5, scratch).has_value());
}

TEST(StreamRoutingTest, RoutedPlacementKeepsPointsOnHomeShards) {
  StreamingGkMeans model(kDim, RoutedParams());
  const SyntheticData data = StreamData(1600);
  Feed(model, data.vectors, 200);
  ASSERT_TRUE(model.bootstrapped());
  ASSERT_EQ(model.cluster_home().size(), model.params().k);
  for (std::uint32_t home : model.cluster_home()) {
    EXPECT_LT(home, model.graph().num_shards());
  }

  // Every labeled live point sits on its cluster's home shard (global ids
  // interleave as slot * S + shard, so shard == id % S). The per-window
  // migration sweep has an unbounded-enough budget here to finish.
  const auto expect_placed = [&] {
    const std::size_t S = model.graph().num_shards();
    for (std::uint32_t g = 0; g < model.labels().size(); ++g) {
      const std::uint32_t label = model.labels()[g];
      if (label == kUnassigned) continue;
      EXPECT_EQ(g % S, model.cluster_home()[label]) << "id " << g;
    }
  };
  expect_placed();

  // Churn: remove a third, stream fresh data (TTL-free removal path plus
  // rebalancer + migration), and the invariant must hold again.
  for (std::uint32_t g = 0; g < model.labels().size(); g += 3) {
    if (model.labels()[g] != kUnassigned) model.RemovePoint(g);
  }
  const SyntheticData more = StreamData(600, 31);
  Feed(model, more.vectors, 200);
  expect_placed();
}

// Misplaced rows recounted from scratch: labeled rows whose shard (id % S)
// is not their cluster's home.
std::size_t RecountMisplaced(const StreamingGkMeans& model) {
  if (model.cluster_home().empty()) return 0;
  const std::size_t S = model.graph().num_shards();
  std::size_t misplaced = 0;
  for (std::uint32_t g = 0; g < model.labels().size(); ++g) {
    const std::uint32_t label = model.labels()[g];
    if (label != kUnassigned && g % S != model.cluster_home()[label]) {
      ++misplaced;
    }
  }
  return misplaced;
}

TEST(StreamRoutingTest, MisplacedCountMatchesRecountThroughChurnAndRestore) {
  StreamingGkMeansParams p = RoutedParams();
  // A small budget leaves rows outstanding across windows, and a low
  // rebalance threshold forces re-homes once removals skew the shards.
  p.migrate_budget = 3;
  p.rebalance_threshold = 0.02;
  StreamingGkMeans model(kDim, p);
  const SyntheticData data = StreamData(2400);
  std::size_t rehomed = 0;
  const auto observe = [&](StreamingGkMeans& m, const Matrix& rows) {
    for (std::size_t b = 0; b < rows.rows(); b += 100) {
      m.ObserveWindow(SliceRows(rows, b, std::min(b + 100, rows.rows())));
      ASSERT_EQ(m.misplaced_rows(), RecountMisplaced(m))
          << "after window " << m.windows_seen();
      rehomed += m.history().back().rehomed;
    }
  };

  // Bootstrap (its unbudgeted migration) and steady windows.
  observe(model, SliceRows(data.vectors, 0, 1000));
  ASSERT_TRUE(model.bootstrapped());
  // Removals: drain most of shard 0 so the rebalancer re-homes clusters.
  for (std::uint32_t g = 0; g < model.labels().size(); g += 4) {
    if (model.labels()[g] == kUnassigned) continue;
    model.RemovePoint(g);
    ASSERT_EQ(model.misplaced_rows(), RecountMisplaced(model));
  }
  observe(model, SliceRows(data.vectors, 1000, 1200));
  EXPECT_GT(rehomed, 0u) << "the rebalancer never re-homed a cluster";
  // The budget leaves re-homed rows outstanding at the cut, so the restore
  // below has a non-zero count to rebuild.
  ASSERT_GT(model.misplaced_rows(), 0u);

  // Restore rebuilds the (never checkpointed) count from labels + homes.
  const std::string path = TempPath("routed_misplaced.ckpt");
  SaveStreamCheckpoint(path, model);
  StreamingGkMeans back = LoadStreamCheckpoint(path);
  std::remove(path.c_str());
  EXPECT_EQ(back.misplaced_rows(), model.misplaced_rows());
  EXPECT_EQ(back.misplaced_rows(), RecountMisplaced(back));
  observe(back, SliceRows(data.vectors, 1200, 2400));
}

TEST(StreamRoutingTest, MigrationSweepScansNothingOnStationaryModel) {
  // The serving shape: no split/merge, no drift epochs, no churn. Rows are
  // placed on their mode's home shard and their graph neighbours live
  // there too, so after the bootstrap migration nothing is ever misplaced
  // and the per-window sweep must not inspect a single slot.
  StreamingGkMeansParams p = RoutedParams();
  p.max_splits_per_window = 0;
  p.drift_threshold = 0.0;
  StreamingGkMeans model(kDim, p);
  const SyntheticData data = StreamData(2400);
  Feed(model, SliceRows(data.vectors, 0, 400), 400);
  ASSERT_TRUE(model.bootstrapped());
  EXPECT_EQ(model.misplaced_rows(), 0u);
#if GKM_STATS_ENABLED
  obs::Counter& scanned =
      obs::MetricsRegistry::Global().GetCounter("stream.migrate.scanned");
  const std::int64_t before = scanned.Value();
#endif
  for (std::size_t b = 400; b < 2400; b += 20) {
    model.ObserveWindow(SliceRows(data.vectors, b, b + 20));
    ASSERT_EQ(model.misplaced_rows(), 0u) << "window " << model.windows_seen();
    EXPECT_EQ(model.history().back().migrated, 0u);
  }
#if GKM_STATS_ENABLED
  EXPECT_EQ(scanned.Value(), before);
#endif
}

TEST(StreamRoutingTest, RoutedSearchKeepsMergedQuality) {
  StreamingGkMeans model(kDim, RoutedParams());
  const SyntheticData data = StreamData(1600);
  Feed(model, data.vectors, 200);
  ASSERT_TRUE(model.bootstrapped());
  ASSERT_NE(model.graph().router(), nullptr);

  const SyntheticData queries = StreamData(50, 99);
  SearchScratch scratch;
  std::size_t hits = 0, want = 0;
  for (std::size_t q = 0; q < queries.vectors.rows(); ++q) {
    const float* x = queries.vectors.Row(q);
    const std::vector<Neighbor> merged = model.graph().SearchKnn(x, 10, scratch);
    const std::vector<Neighbor> routed =
        model.graph().SearchKnnRouted(x, 10, scratch);
    ASSERT_FALSE(routed.empty());
    for (std::size_t i = 1; i < routed.size(); ++i) {
      EXPECT_LE(routed[i - 1].dist, routed[i].dist);
    }
    want += merged.size();
    for (const Neighbor& m : merged) {
      for (const Neighbor& r : routed) {
        if (r.id == m.id) {
          ++hits;
          break;
        }
      }
    }
  }
  // The single-shard fast path may legitimately miss cross-cluster
  // neighbors the merged fan-out sees; the margin-guarded spill keeps the
  // overlap high.
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(want), 0.8);
  EXPECT_GT(model.graph().route_hits(), 0u);
}

TEST(StreamRoutingTest, RoutedCheckpointBytesIdenticalAcrossThreadCounts) {
  const SyntheticData data = StreamData(1600);
  StreamingGkMeansParams p1 = RoutedParams();
  p1.ingest_threads = 1;
  StreamingGkMeansParams p4 = RoutedParams();
  p4.ingest_threads = 4;

  StreamingGkMeans a(kDim, p1);
  StreamingGkMeans b(kDim, p4);
  Feed(a, data.vectors, 200);
  Feed(b, data.vectors, 200);
  ASSERT_TRUE(a.bootstrapped());

  const std::string pa = TempPath("routed_t1.ckpt");
  const std::string pb = TempPath("routed_t4.ckpt");
  SaveStreamCheckpoint(pa, a);
  SaveStreamCheckpoint(pb, b);
  const std::string bytes_a = ReadFileBytes(pa);
  EXPECT_EQ(FileVersion(bytes_a), 6u);
  // ingest_threads is a pure execution knob (and deliberately not
  // persisted); placement, rebalancing and migration are functions of
  // checkpointed state only, so the files agree byte for byte.
  EXPECT_EQ(bytes_a, ReadFileBytes(pb));
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

TEST(StreamRoutingTest, RoutedCheckpointBytesIdenticalAcrossMidMigrationResume) {
  const SyntheticData data = StreamData(1600);
  StreamingGkMeansParams p = RoutedParams();
  // A tiny per-window budget leaves migrations outstanding at almost any
  // cut point, so the resume below lands mid-migration by construction.
  p.migrate_budget = 2;

  StreamingGkMeans uninterrupted(kDim, p);
  Feed(uninterrupted, data.vectors, 200);

  StreamingGkMeans first_half(kDim, p);
  Feed(first_half, SliceRows(data.vectors, 0, 800), 200);
  const std::string mid = TempPath("routed_mid.ckpt");
  SaveStreamCheckpoint(mid, first_half);
  StreamingGkMeans resumed = LoadStreamCheckpoint(mid);
  Feed(resumed, SliceRows(data.vectors, 800, 1600), 200);

  const std::string pa = TempPath("routed_full.ckpt");
  const std::string pb = TempPath("routed_resumed.ckpt");
  SaveStreamCheckpoint(pa, uninterrupted);
  SaveStreamCheckpoint(pb, resumed);
  EXPECT_EQ(ReadFileBytes(pa), ReadFileBytes(pb));
  std::remove(mid.c_str());
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

TEST(StreamRoutingTest, ReplicaReadsMatchLeaderAndTrailByOneWindow) {
  StreamingGkMeansParams p = RoutedParams();
  p.read_replicas = 1;
  StreamingGkMeans model(kDim, p);
  const SyntheticData data = StreamData(1600);
  Feed(model, data.vectors, 200);
  ASSERT_TRUE(model.bootstrapped());

  const std::shared_ptr<const ReplicaTable> table =
      model.graph().replica_table();
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->window, model.windows_seen());
  EXPECT_NE(table->router, nullptr);

  // Replica answers are element-wise identical to the leader's routed
  // answers against the same committed window — the replicas are restored
  // from the leader's own checkpoint parts.
  const SyntheticData queries = StreamData(32, 99);
  SearchScratch scratch;
  const std::vector<std::vector<Neighbor>> leader =
      model.graph().SearchKnnBatchRouted(queries.vectors, 10, scratch);
  const std::vector<std::vector<Neighbor>> replica =
      model.graph().SearchKnnBatchReplica(queries.vectors, 10, scratch);
  ASSERT_EQ(leader.size(), replica.size());
  for (std::size_t q = 0; q < leader.size(); ++q) {
    ASSERT_EQ(leader[q].size(), replica[q].size()) << "query " << q;
    for (std::size_t i = 0; i < leader[q].size(); ++i) {
      EXPECT_EQ(leader[q][i].id, replica[q][i].id);
      EXPECT_EQ(leader[q][i].dist, replica[q][i].dist);
    }
  }
  EXPECT_GT(model.graph().replica_reads(), 0u);

  // A generation in flight keeps its window while the writer commits the
  // next one: the captured table is immutable, the fresh table trails the
  // leader by zero windows again.
  const std::uint64_t before = table->window;
  const SyntheticData more = StreamData(200, 31);
  model.ObserveWindow(more.vectors);
  EXPECT_EQ(table->window, before);
  const std::shared_ptr<const ReplicaTable> fresh =
      model.graph().replica_table();
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->window, model.windows_seen());
  EXPECT_NE(fresh, table);
}

TEST(StreamRoutingTest, V6RoundTripRestoresRoutingState) {
  StreamingGkMeansParams p = RoutedParams();
  p.spill_margin = 0.5;
  p.rebalance_threshold = 0.25;
  p.migrate_budget = 512;
  p.read_replicas = 2;
  StreamingGkMeans model(kDim, p);
  const SyntheticData data = StreamData(1600);
  Feed(model, data.vectors, 200);
  ASSERT_TRUE(model.bootstrapped());

  const std::string path = TempPath("routed_v6.ckpt");
  SaveStreamCheckpoint(path, model);
  EXPECT_EQ(FileVersion(ReadFileBytes(path)), 6u);

  StreamingGkMeans back = LoadStreamCheckpoint(path);
  EXPECT_TRUE(back.params().routed_placement);
  EXPECT_EQ(back.params().spill_margin, 0.5);
  EXPECT_EQ(back.params().rebalance_threshold, 0.25);
  EXPECT_EQ(back.params().migrate_budget, 512u);
  EXPECT_EQ(back.params().read_replicas, 2u);
  EXPECT_EQ(back.cluster_home(), model.cluster_home());
  EXPECT_EQ(back.labels(), model.labels());

  // Per-mode adaptive seed budgets survive per shard.
  for (std::size_t s = 0; s < model.graph().num_shards(); ++s) {
    const std::vector<AdaptiveSeedState> want =
        model.graph().shard(s).mode_seed_states();
    const std::vector<AdaptiveSeedState> got =
        back.graph().shard(s).mode_seed_states();
    ASSERT_EQ(want.size(), got.size()) << "shard " << s;
    for (std::size_t m = 0; m < want.size(); ++m) {
      EXPECT_EQ(want[m].live_seeds, got[m].live_seeds);
      EXPECT_EQ(want[m].fail_ewma, got[m].fail_ewma);
      EXPECT_EQ(want[m].audit_tick, got[m].audit_tick);
    }
  }

  // Re-saving the restored model reproduces the file byte for byte.
  const std::string again = TempPath("routed_v6_again.ckpt");
  SaveStreamCheckpoint(again, back);
  EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(again));
  std::remove(path.c_str());
  std::remove(again.c_str());
}

}  // namespace
}  // namespace gkm
