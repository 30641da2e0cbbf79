// Copyright 2026 The gkmeans Authors.

#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/kernels.h"

#if defined(__x86_64__)
#include <immintrin.h>
#define GKB_REF_AVX512 1
#endif

namespace gkb {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib > 0) return static_cast<double>(kib) / 1024.0;
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t LoadThreads() {
  const std::size_t cores = std::thread::hardware_concurrency();
  return std::max<std::size_t>(1, std::min<std::size_t>(4, cores));
}

namespace {

constexpr std::size_t kRefRows = 256;
constexpr std::size_t kRefDim = 512;
constexpr int kRefCalls = 16;

// The reference kernel: squared-L2 partial sums of `q` against kRefRows
// rows, four rows' 4-lane accumulators per 512-bit register, 16 rows in
// flight. It has the instruction mix of the library's AVX-512 L2 kernels
// (128-bit loads inserted into 512-bit lanes, sub, mul, add), so the
// neighbours' load slows it about as much as it slows the clustering: on
// the 4-vCPU Xeon VM, its p90/p10 time over 20 s was 1.69 against 1.67 for
// L2SqrBatch, where a plainer kernel (full-width loads, or one accumulator
// chain) gave 1.25. `out` takes 4 floats per row.
#ifdef GKB_REF_AVX512
// GCC 12's avx512fintrin.h trips a bogus -Wuninitialized (GCC PR105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
__attribute__((target("avx512f"))) void RefDistancesAvx512(const float* q, const float* rows,
                                                           float* out) {
  for (std::size_t i = 0; i < kRefRows; i += 16) {
    __m512 acc[4];
    for (int r = 0; r < 4; ++r) acc[r] = _mm512_setzero_ps();
    for (std::size_t j = 0; j < kRefDim; j += 4) {
      const __m512 qq = _mm512_broadcast_f32x4(_mm_loadu_ps(q + j));
      for (int r = 0; r < 4; ++r) {
        const float* x = rows + (i + 4 * r) * kRefDim + j;
        __m512 rr = _mm512_castps128_ps512(_mm_loadu_ps(x));
        rr = _mm512_insertf32x4(rr, _mm_loadu_ps(x + kRefDim), 1);
        rr = _mm512_insertf32x4(rr, _mm_loadu_ps(x + 2 * kRefDim), 2);
        rr = _mm512_insertf32x4(rr, _mm_loadu_ps(x + 3 * kRefDim), 3);
        const __m512 df = _mm512_sub_ps(qq, rr);
        acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(df, df));
      }
    }
    for (int r = 0; r < 4; ++r) _mm512_storeu_ps(out + (i + 4 * r) * 4, acc[r]);
  }
}
#pragma GCC diagnostic pop
#endif

// The same sums on CPUs without AVX-512.
void RefDistancesPlain(const float* q, const float* rows, float* out) {
  for (std::size_t i = 0; i < kRefRows; ++i) {
    float acc[4] = {};
    for (std::size_t j = 0; j < kRefDim; ++j) {
      const float df = q[j] - rows[i * kRefDim + j];
      acc[j % 4] += df * df;
    }
    for (int l = 0; l < 4; ++l) out[i * 4 + l] = acc[l];
  }
}

}  // namespace

HostSpeed::HostSpeed()
    : rows_(kRefRows * kRefDim),
      query_(kRefDim),
      out_(kRefRows * 4),
#ifdef GKB_REF_AVX512
      avx512_(__builtin_cpu_supports("avx512f")) {
#else
      avx512_(false) {
#endif
  for (std::size_t i = 0; i < rows_.size(); ++i) rows_[i] = static_cast<float>(i % 97) * 0.01f;
  for (std::size_t j = 0; j < kRefDim; ++j) query_[j] = static_cast<float>(j % 89) * 0.01f;
}

void HostSpeed::RunReference() {
#ifdef GKB_REF_AVX512
  if (avx512_) return RefDistancesAvx512(query_.data(), rows_.data(), out_.data());
#endif
  RefDistancesPlain(query_.data(), rows_.data(), out_.data());
}

void HostSpeed::Sample() {
  std::vector<double> ns;
  for (int c = 0; c <= kRefCalls; ++c) {
    const std::int64_t t0 = NowNs();
    RunReference();
    if (c > 0) ns.push_back(static_cast<double>(NowNs() - t0));  // the first call warms up
  }
  samples_ns_.push_back(Median(ns));
}

double HostSpeed::Scale() const {
  return samples_ns_.empty() ? 1.0 : kRefNs / Mean(samples_ns_);
}

double Report::Get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::Note(const std::string& key, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  notes_[key] = std::isfinite(value) ? buf : "null";
}

std::string Report::NotesJson() const {
  std::string out = "{";
  for (const auto& [key, value] : notes_) {
    if (out.size() > 1) out += ',';
    out += "\"" + key + "\":" + value;
  }
  return out + "}";
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "gkbench: CHECK FAILED: %s\n", what.c_str());
}

namespace {

struct OpenSpan {
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t request_id;
  std::string name;
  std::int64_t start_ns;
};

// Open spans of the calling thread, innermost last. The benchmark runs
// one Tracer per process, so the stack needs no per-tracer key.
thread_local std::vector<OpenSpan> open_spans;

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::uint64_t Tracer::Begin(const std::string& name, std::uint64_t request_id) {
  std::uint64_t id = 0;
  {
    gkm::MutexLock lock(mu_);
    id = next_id_++;
  }
  const std::uint64_t parent = open_spans.empty() ? 0 : open_spans.back().id;
  open_spans.push_back(OpenSpan{id, parent, request_id, name, NowNs()});
  return id;
}

void Tracer::End(std::uint64_t id) {
  const std::int64_t end = NowNs();
  if (open_spans.empty() || open_spans.back().id != id) {
    std::fprintf(stderr, "gkbench: span %llu closed out of order\n",
                 static_cast<unsigned long long>(id));
    std::abort();
  }
  OpenSpan s = std::move(open_spans.back());
  open_spans.pop_back();
  gkm::MutexLock lock(mu_);
  done_.push_back(
      SpanRecord{s.id, s.parent, s.request_id, std::move(s.name), s.start_ns, end});
}

void Tracer::Add(const std::string& name, std::uint64_t parent,
                 std::int64_t start_ns, std::int64_t end_ns) {
  gkm::MutexLock lock(mu_);
  done_.push_back(SpanRecord{next_id_++, parent, 0, name, start_ns, end_ns});
}

std::vector<SpanRecord> Tracer::Records() const {
  gkm::MutexLock lock(mu_);
  return done_;
}

std::map<std::string, SpanSummary> Tracer::Summarize() const {
  const std::vector<SpanRecord> recs = Records();
  std::map<std::uint64_t, double> child_s;
  for (const SpanRecord& r : recs) {
    if (r.parent != 0) child_s[r.parent] += r.Seconds();
  }
  std::map<std::string, SpanSummary> out;
  for (const SpanRecord& r : recs) {
    SpanSummary& s = out[r.name];
    ++s.count;
    s.total_s += r.Seconds();
    const auto it = child_s.find(r.id);
    s.self_s += r.Seconds() - (it == child_s.end() ? 0.0 : it->second);
  }
  return out;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& r : Records()) {
    if (r.name == name) out.push_back(r.Seconds());
  }
  return out;
}

double Tracer::Coverage(const std::string& parent) const {
  const std::vector<SpanRecord> recs = Records();
  std::map<std::uint64_t, double> parents;
  for (const SpanRecord& r : recs) {
    if (r.name == parent) parents[r.id] = r.Seconds();
  }
  double covered = 0.0;
  for (const SpanRecord& r : recs) {
    if (parents.count(r.parent) != 0) covered += r.Seconds();
  }
  double total = 0.0;
  for (const auto& [id, s] : parents) total += s;
  return total > 0.0 ? covered / total : 0.0;
}

bool Tracer::WriteJsonl(const std::string& path, const std::string& header) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header.c_str());
  for (const SpanRecord& r : Records()) {
    std::fprintf(f,
                 "{\"span\":\"%s\",\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 JsonEscape(r.name).c_str(), static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.request_id),
                 static_cast<long long>(r.start_ns), static_cast<long long>(r.end_ns));
  }
  for (const auto& [name, s] : Summarize()) {
    std::fprintf(f,
                 "{\"summary\":\"%s\",\"count\":%llu,\"total_s\":%.9g,\"self_s\":%.9g}\n",
                 JsonEscape(name).c_str(), static_cast<unsigned long long>(s.count),
                 s.total_s, s.self_s);
  }
  return std::fclose(f) == 0;
}

namespace {

const gkm::obs::HistogramData* FindHistogram(const gkm::obs::RegistrySnapshot& s,
                                             const std::string& name) {
  for (const auto& [n, h] : s.histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

}  // namespace

double HistogramMeanDelta(const gkm::obs::RegistrySnapshot& before,
                          const gkm::obs::RegistrySnapshot& after,
                          const std::string& name) {
  const gkm::obs::HistogramData* a = FindHistogram(after, name);
  if (a == nullptr) return 0.0;
  const gkm::obs::HistogramData* b = FindHistogram(before, name);
  const std::uint64_t count = a->count - (b == nullptr ? 0 : b->count);
  const double sum = a->sum - (b == nullptr ? 0.0 : b->sum);
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

std::int64_t CounterDelta(const gkm::obs::RegistrySnapshot& before,
                          const gkm::obs::RegistrySnapshot& after,
                          const std::string& name) {
  std::int64_t delta = 0;
  for (const auto& [n, v] : after.counters) {
    if (n == name) delta += v;
  }
  for (const auto& [n, v] : before.counters) {
    if (n == name) delta -= v;
  }
  return delta;
}

std::string HostJson(std::size_t load_threads) {
  const std::size_t nproc = std::thread::hardware_concurrency();
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\":%zu,\"simd_tier\":\"%s\",\"build_type\":\"%s\","
                "\"gkm_no_stats\":%s,\"load_threads\":%zu,\"undersized_host\":%s}",
                nproc, gkm::SimdTierName(gkm::ActiveSimdTier()), GKB_BUILD_TYPE,
                GKM_STATS_ENABLED ? "false" : "true", load_threads,
                nproc < load_threads ? "true" : "false");
  return buf;
}

}  // namespace gkb
