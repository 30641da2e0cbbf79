// Copyright 2026 The gkmeans Authors.

#include "search_entry.h"

#include <algorithm>

#include "graph/brute_force.h"

namespace gkb {

double RecallAtK(const std::vector<std::vector<gkm::Neighbor>>& got,
                 const std::vector<std::vector<std::uint32_t>>& truth,
                 std::size_t k) {
  if (got.empty() || got.size() != truth.size()) return 0.0;
  double hits = 0.0;
  for (std::size_t q = 0; q < got.size(); ++q) {
    const std::size_t want = std::min(k, truth[q].size());
    for (std::size_t i = 0; i < std::min(k, got[q].size()); ++i) {
      const auto end = truth[q].begin() + static_cast<std::ptrdiff_t>(want);
      if (std::find(truth[q].begin(), end, got[q][i].id) != end) hits += 1.0;
    }
  }
  return hits / static_cast<double>(got.size() * k);
}

std::vector<std::vector<std::uint32_t>> ExactTopK(const gkm::Matrix& base,
                                                  const std::vector<std::uint32_t>& ids,
                                                  const gkm::Matrix& queries,
                                                  std::size_t k) {
  const std::vector<std::vector<gkm::Neighbor>> exact =
      gkm::BruteForceSearch(base, queries, k);
  std::vector<std::vector<std::uint32_t>> out(exact.size());
  for (std::size_t q = 0; q < exact.size(); ++q) {
    for (const gkm::Neighbor& nb : exact[q]) out[q].push_back(ids[nb.id]);
  }
  return out;
}

}  // namespace gkb
