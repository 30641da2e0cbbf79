// Copyright 2026 The gkmeans Authors.
// Every call the benchmark makes into a library search entry point goes
// through this file, so renaming or replacing those entry points (for
// example a read-view API over the streaming model) touches one place.

#ifndef GKB_SEARCH_ENTRY_H_
#define GKB_SEARCH_ENTRY_H_

#include <cstdint>
#include <vector>

#include "anns/graph_search.h"
#include "harness.h"
#include "common/matrix.h"
#include "common/top_k.h"
#include "stream/streaming_gkmeans.h"

namespace gkb {

/// Routed top-k search over a streaming model's live points (merged
/// search when the model has one shard or no router). Ids are global.
inline std::vector<gkm::Neighbor> SearchModel(const gkm::StreamingGkMeans& model,
                                              const float* query, std::size_t topk,
                                              gkm::SearchScratch& scratch) {
  return model.graph().SearchKnnRouted(query, topk, scratch);
}

/// Graph-based ANN search over a batch KNN graph (paper §4.3).
inline std::vector<gkm::Neighbor> SearchGraph(const gkm::GraphSearcher& searcher,
                                              const float* query, std::size_t topk) {
  gkm::SearchParams params;
  params.topk = topk;
  return searcher.Search(query, params);
}

/// Answers and per-query latency of a one-query-at-a-time probe.
struct ProbeRun {
  std::vector<std::vector<gkm::Neighbor>> results;
  std::vector<double> us;  ///< per-query wall time, microseconds
  double wall_s = 0.0;     ///< whole probe, seconds
};

/// Runs `search(row)` for every query row, timing each call.
template <typename SearchFn>
ProbeRun RunProbe(const gkm::Matrix& queries, SearchFn&& search);

/// Mean recall@k of `got` against exact top-k ids `truth`.
double RecallAtK(const std::vector<std::vector<gkm::Neighbor>>& got,
                 const std::vector<std::vector<std::uint32_t>>& truth,
                 std::size_t k);

/// Exact top-k ids of each query among `ids[i]` <-> `base.Row(i)` (the
/// live corpus), via graph/brute_force.
std::vector<std::vector<std::uint32_t>> ExactTopK(const gkm::Matrix& base,
                                                  const std::vector<std::uint32_t>& ids,
                                                  const gkm::Matrix& queries,
                                                  std::size_t k);

template <typename SearchFn>
ProbeRun RunProbe(const gkm::Matrix& queries, SearchFn&& search) {
  ProbeRun out;
  out.results.resize(queries.rows());
  out.us.resize(queries.rows());
  const std::int64_t t0 = NowNs();
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const std::int64_t s = NowNs();
    out.results[q] = search(queries.Row(q));
    out.us[q] = static_cast<double>(NowNs() - s) * 1e-3;
  }
  out.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  return out;
}

}  // namespace gkb

#endif  // GKB_SEARCH_ENTRY_H_
