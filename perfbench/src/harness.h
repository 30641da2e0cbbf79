// Copyright 2026 The gkmeans Authors.
// Shared plumbing of the repo benchmark (gkbench): run configuration,
// the metric table every workload reports into, sample statistics, the
// in-memory span recorder of the traced mode, and the host stamp.
//
// The benchmark measures the library only through its public functions.
// Spans are recorded here, around the benchmark's own calls into each
// module; the library's obs registry is read, never extended.

#ifndef GKB_HARNESS_H_
#define GKB_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace gkb {

/// Command-line configuration of one benchmark run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< measured duration of the timed region
  bool trace = false;      ///< traced mode: report per-layer metrics
  bool tiny = false;       ///< self-test sizes (--size tiny)
  std::string out_dir = ".";  ///< spans file and scratch files go here
};

/// Monotonic nanoseconds (std::chrono::steady_clock).
std::int64_t NowNs();

/// Quantile `q` in [0,1] of `v` by nearest rank (v need not be sorted);
/// 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }
double Sum(const std::vector<double>& v);
/// Arithmetic mean; 0 for an empty sample. Whole-operation times use it:
/// on a host whose speed flips between two levels every second or so, a
/// median jumps between the levels while a mean moves with their mix.
inline double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Sum(v) / static_cast<double>(v.size());
}

/// Returns the allocator's free memory to the kernel (malloc_trim), then
/// resets the peak resident set size to the current one (writes 5 to
/// /proc/self/clear_refs), so PeakRssMb covers what runs after the call:
/// neither the set-up's input generation nor the heap it left free, whose
/// size depends on allocation history. False if the kernel does not allow
/// the reset; PeakRssMb then reports the whole process's peak.
bool ResetPeakRss();
/// Peak resident set size in MiB since the last ResetPeakRss (VmHWM of
/// /proc/self/status; getrusage's ru_maxrss where that is unavailable).
double PeakRssMb();

/// Worker threads the benchmark asks for: min(4, nproc), at least 1.
std::size_t LoadThreads();

/// Host speed reference of a single-threaded, vector-bound load. On the
/// shared hosts the benchmark runs on, a CPU's vector throughput drops by
/// 1.5-2x while its neighbours load it, in spells from 0.1 s to longer
/// than a whole run; the share of slow time differs from run to run, and
/// every timed figure moves with it. Sample() times a fixed reference
/// kernel of the benchmark's own (squared L2 of one query against 256
/// rows, d=512, with AVX-512 where the CPU has it; median of 16 calls,
/// about 0.2 ms), taken between the load's operations so the samples see
/// the same spells as they do. Scale() is kRefNs over the samples' mean:
/// a mean operation time times it is the operation's time at the host
/// speed where the kernel takes kRefNs. The kernel is not library code,
/// so a change to the program does not move the scale.
class HostSpeed {
 public:
  /// Reference kernel time: about its fast-spell median on the 4-vCPU
  /// Xeon (AVX-512) VM the benchmark was tuned on.
  static constexpr double kRefNs = 10000.0;

  HostSpeed();
  void Sample();
  /// kRefNs / mean sample; 1 without samples.
  double Scale() const;

 private:
  void RunReference();

  std::vector<float> rows_;  ///< the reference rows, row-major
  std::vector<float> query_;
  std::vector<float> out_;
  bool avx512_;
  std::vector<double> samples_ns_;  ///< median kernel time per sample
};

/// Everything a workload reports. Metric names must appear in the
/// benchmark's metric table (see main.cc); a failed output check makes
/// the run incorrect.
class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  bool Has(const std::string& name) const { return values_.count(name) != 0; }
  double Get(const std::string& name) const;

  /// Records an output check; a false `ok` marks the run incorrect and
  /// prints `what` to stderr.
  void Check(bool ok, const std::string& what);
  bool correct() const { return correct_; }

  /// Operation tallies of the result line.
  void AddOps(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Run facts that are not metrics (e.g. benchmark health flags),
  /// printed with the host stamp.
  void Note(const std::string& key, double value);
  void Note(const std::string& key, bool value) { notes_[key] = value ? "true" : "false"; }
  /// The notes as one JSON object.
  std::string NotesJson() const;

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::string> notes_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// One recorded span: a named interval on one thread, linked to the span
/// that caused it (0 = root) and to a request (0 = none).
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request_id = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double Seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Per-name span totals; self time is the span's duration minus the part
/// covered by its child spans.
struct SpanSummary {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// In-memory span store. Spans nest per thread: a span opened while
/// another is open on the same thread becomes its child. Thread-safe.
class Tracer {
 public:
  /// Opens a span on the calling thread and returns its id.
  std::uint64_t Begin(const std::string& name, std::uint64_t request_id = 0);
  /// Closes the innermost open span of the calling thread (must be `id`).
  void End(std::uint64_t id);
  /// Adds an already-timed span under `parent` (for intervals the library
  /// reports after the fact, e.g. per-round callbacks).
  void Add(const std::string& name, std::uint64_t parent,
           std::int64_t start_ns, std::int64_t end_ns);

  std::vector<SpanRecord> Records() const;
  std::map<std::string, SpanSummary> Summarize() const;
  /// Durations (seconds) of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Sum of child durations of spans called `parent` over the sum of
  /// their own durations: how much of the parent the layer spans cover.
  double Coverage(const std::string& parent) const;
  /// Writes one JSON object per span, then the per-name summary.
  bool WriteJsonl(const std::string& path, const std::string& header) const;

 private:
  mutable gkm::Mutex mu_;
  std::vector<SpanRecord> done_ GKM_GUARDED_BY(mu_);
  std::uint64_t next_id_ GKM_GUARDED_BY(mu_) = 1;
};

/// RAII span; a null tracer makes it a no-op (the untraced half of a
/// traced run, and every untraced run).
class Span {
 public:
  Span(Tracer* tracer, const std::string& name, std::uint64_t request_id = 0)
      : tracer_(tracer),
        id_(tracer == nullptr ? 0 : tracer->Begin(name, request_id)) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint64_t id_;
};

/// Exact mean of what a registry histogram recorded between two scrapes
/// (sum and count are exact; bucketed quantiles are not), 0 if nothing.
double HistogramMeanDelta(const gkm::obs::RegistrySnapshot& before,
                          const gkm::obs::RegistrySnapshot& after,
                          const std::string& name);
/// Counter increase between two scrapes.
std::int64_t CounterDelta(const gkm::obs::RegistrySnapshot& before,
                          const gkm::obs::RegistrySnapshot& after,
                          const std::string& name);

/// Host facts stamped on every result, as one JSON object.
std::string HostJson(std::size_t load_threads);

}  // namespace gkb

#endif  // GKB_HARNESS_H_
