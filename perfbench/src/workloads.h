// Copyright 2026 The gkmeans Authors.
// The benchmark's workloads. Each generates its inputs from the run seed
// before its clock starts, runs its timed region for cfg.seconds, checks
// its outputs, and sets every metric it measures in `report`. In traced
// mode every second operation records spans into `tracer`; the other
// half runs untraced, so the difference is the tracing overhead.

#ifndef GKB_WORKLOADS_H_
#define GKB_WORKLOADS_H_

#include "harness.h"

namespace gkb {

/// One-call GkMeansCluster (Alg. 3 graph, then Alg. 2) on VLAD-like data.
void RunBatchCluster(const RunConfig& cfg, Report& report, Tracer& tracer);

/// Windowed churn through an in-process StreamingGkMeans with a journal.
void RunStreamChurn(const RunConfig& cfg, Report& report, Tracer& tracer);

/// Mixed search + ingest traffic against an in-process serve::Server.
void RunServeMixed(const RunConfig& cfg, Report& report, Tracer& tracer);

/// Times L2SqrBatch at d=512 and d=32 (common.l2_batch_ns_d*): median
/// nanoseconds per scored row over repeated 256-row batches.
void MeasureCommonKernels(std::uint64_t seed, Report& report);

}  // namespace gkb

#endif  // GKB_WORKLOADS_H_
