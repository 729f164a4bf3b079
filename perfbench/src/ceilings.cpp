// Machine ceilings: STREAM triad bandwidth and FMA peak. This file is built
// with -ffp-contract=fast so a * b + c contracts to FMA instructions, and the
// FMA kernel is compiled per ISA with function multiversioning, so the probe
// measures what the hardware can do rather than the ISA baseline the
// program itself is built for.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "harness.hpp"
#include "parallel/thread_pool.hpp"

namespace pb {

namespace {

using v8d = double __attribute__((vector_size(64)));

/// 2 * 8 * 16 flops per iteration from 16 independent vector accumulators.
/// Clones are chosen by CPU feature (not CPU model), so any AVX-512 or FMA
/// machine gets its widest FMA.
__attribute__((target_clones("avx512f", "fma", "default"))) double
fma_kernel(std::size_t iters, double seed) {
  v8d acc[16];
  for (int j = 0; j < 16; ++j)
    for (int l = 0; l < 8; ++l) acc[j][l] = seed + 0.001 * (j * 8 + l);
  const v8d a = {0.999999, 0.999999, 0.999999, 0.999999,
                 0.999999, 0.999999, 0.999999, 0.999999};
  const v8d b = {1e-7, 1e-7, 1e-7, 1e-7, 1e-7, 1e-7, 1e-7, 1e-7};
  for (std::size_t i = 0; i < iters; ++i)
    for (int j = 0; j < 16; ++j) acc[j] = acc[j] * a + b;
  double s = 0.0;
  for (int j = 0; j < 16; ++j)
    for (int l = 0; l < 8; ++l) s += acc[j][l];
  return s;
}

constexpr double kFmaFlopsPerIter = 2.0 * 8.0 * 16.0;

struct Arrays {
  std::unique_ptr<double[]> a, b, c;
  std::size_t n = 0;
};

/// Parallel triad over [0, n) split into `parts` contiguous ranges.
void triad(Arrays& arr, double s, std::size_t parts, bool pooled) {
  const auto body = [&](std::size_t part, std::size_t) {
    const std::size_t lo = arr.n * part / parts;
    const std::size_t hi = arr.n * (part + 1) / parts;
    double* __restrict a = arr.a.get();
    const double* __restrict b = arr.b.get();
    const double* __restrict c = arr.c.get();
    for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
  };
  if (pooled)
    tsunami::ThreadPool::global().run(parts, body);
  else
    body(0, 0);
}

}  // namespace

Ceilings measure_ceilings() {
  Ceilings c;
  auto& pool = tsunami::ThreadPool::global();
  c.threads = pool.num_threads() + 1;  // workers plus the calling thread
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  c.llc_bytes = llc > 0 ? static_cast<std::size_t>(llc) : std::size_t{32} << 20;
  c.array_bytes = 4 * c.llc_bytes;

  Arrays arr;
  arr.n = c.array_bytes / sizeof(double);
  arr.a.reset(new double[arr.n]);
  arr.b.reset(new double[arr.n]);
  arr.c.reset(new double[arr.n]);
  // Several items per participant, so one slow claim cannot idle the rest.
  const std::size_t parts = 8 * c.threads;
  pool.run(parts, [&](std::size_t part, std::size_t) {
    const std::size_t lo = arr.n * part / parts;
    const std::size_t hi = arr.n * (part + 1) / parts;
    for (std::size_t i = lo; i < hi; ++i) {
      arr.a[i] = 0.0;
      arr.b[i] = 1.0;
      arr.c[i] = 2.0;
    }
  });
  // Counted traffic: read b, read c, write a — 24 bytes per element.
  const double bytes = 24.0 * static_cast<double>(arr.n);
  {
    ScopedSpan span("machine.triad");
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      const std::int64_t t0 = now_ns();
      triad(arr, 0.5 + rep, parts, true);
      best = std::max(best, bytes / ns_to_s(now_ns() - t0) * 1e-9);
    }
    c.triad_gbps = best;
  }
  {
    ScopedSpan span("machine.triad_1t");
    double best = 0.0;
    for (int rep = 0; rep < 2; ++rep) {
      const std::int64_t t0 = now_ns();
      triad(arr, 1.5 + rep, 1, false);
      best = std::max(best, bytes / ns_to_s(now_ns() - t0) * 1e-9);
    }
    c.triad_gbps_1t = best;
  }
  arr = Arrays{};

  constexpr std::size_t kIters = 20'000'000;
  volatile double sink = 0.0;
  {
    ScopedSpan span("machine.fma_1t");
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      const std::int64_t t0 = now_ns();
      sink = sink + fma_kernel(kIters, 1.0 + rep);
      best = std::max(best, kFmaFlopsPerIter * static_cast<double>(kIters) /
                                ns_to_s(now_ns() - t0) * 1e-9);
    }
    c.fma_gflops_1t = best;
  }
  {
    ScopedSpan span("machine.fma");
    double best = 0.0;
    const std::size_t items = 4 * c.threads;
    std::vector<double> out(items);
    for (int rep = 0; rep < 3; ++rep) {
      const std::int64_t t0 = now_ns();
      pool.run(items, [&](std::size_t item, std::size_t) {
        out[item] = fma_kernel(kIters / 4, 1.0 + static_cast<double>(item));
      });
      best = std::max(best, kFmaFlopsPerIter * static_cast<double>(kIters / 4) *
                                static_cast<double>(items) /
                                ns_to_s(now_ns() - t0) * 1e-9);
    }
    for (const double v : out) sink = sink + v;
    c.fma_gflops = best;
  }
  return c;
}

}  // namespace pb
