// Copyright 2026 The gkmeans Authors.
// common.l2_batch_ns_d512 / common.l2_batch_ns_d32: the exact one-to-many
// L2 kernel at each workload's dimension, timed on generated rows.

#include "common/kernels.h"
#include "dataset/synthetic.h"
#include "workloads.h"

namespace gkb {
namespace {

double L2BatchNsPerRow(std::size_t dim, std::uint64_t seed) {
  constexpr std::size_t kRows = 256;
  constexpr int kCalls = 64;
  constexpr int kTrials = 31;
  gkm::SyntheticSpec spec;
  spec.n = kRows + 1;
  spec.dim = dim;
  spec.modes = 16;
  spec.seed = seed;
  const gkm::Matrix m = gkm::MakeGaussianMixture(spec).vectors;
  std::vector<float> out(kRows);
  float sink = 0.0f;
  std::vector<double> per_row_ns;
  for (int t = 0; t < kTrials; ++t) {
    const std::int64_t t0 = NowNs();
    for (int c = 0; c < kCalls; ++c) {
      gkm::L2SqrBatch(m.Row(kRows), m.Row(0), m.stride(), kRows, dim, out.data());
      sink += out[static_cast<std::size_t>(c) % kRows];
    }
    per_row_ns.push_back(static_cast<double>(NowNs() - t0) /
                         static_cast<double>(kCalls * kRows));
  }
  // Keep the kernel calls observable so they cannot be elided.
  if (sink == -1.0f) per_row_ns.push_back(0.0);
  return Median(per_row_ns);
}

}  // namespace

void MeasureCommonKernels(std::uint64_t seed, Report& report) {
  report.Set("common.l2_batch_ns_d512", L2BatchNsPerRow(512, seed));
  report.Set("common.l2_batch_ns_d32", L2BatchNsPerRow(32, seed));
}

}  // namespace gkb
