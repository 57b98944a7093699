// Minimal deterministic data-parallel helper shared by the ensemble
// inference paths. Thread-count convention: common/parallel.hpp's
// resolve_threads (0 = hardware_concurrency, <=1 = serial).
#pragma once

#include <algorithm>
#include <cstddef>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "obs/metrics.hpp"

namespace mfpa::ml {

namespace detail {

/// Thread-utilization instruments for parallel_for_blocks. The helper runs
/// on every ensemble predict, so handles are cached per thread; the cache
/// key is the (registry address, generation) pair, which invalidates it
/// whenever a test swaps in an isolated registry — even one reusing a
/// just-freed address.
struct ParallelMetrics {
  obs::Counter* jobs_serial = nullptr;
  obs::Counter* jobs_threaded = nullptr;
  obs::Counter* workers = nullptr;
};

inline const ParallelMetrics& parallel_metrics() {
  thread_local obs::MetricsRegistry* cached_registry = nullptr;
  thread_local std::uint64_t cached_generation = 0;
  thread_local ParallelMetrics metrics;
  auto& reg = obs::registry();
  if (&reg != cached_registry || reg.generation() != cached_generation) {
    metrics.jobs_serial =
        &reg.counter("mfpa_parallel_jobs_total", {{"mode", "serial"}});
    metrics.jobs_threaded =
        &reg.counter("mfpa_parallel_jobs_total", {{"mode", "threaded"}});
    metrics.workers = &reg.counter("mfpa_parallel_workers_total");
    cached_registry = &reg;
    cached_generation = reg.generation();
  }
  return metrics;
}

}  // namespace detail

/// Invokes fn(begin, end) over [0, n) split into contiguous per-worker
/// blocks. The partition depends only on (n, workers), and each index is
/// written by exactly one worker, so results are thread-count-invariant
/// whenever fn(i) is independent of fn(j).
template <typename Fn>
void parallel_for_blocks(std::size_t n, std::size_t threads, Fn&& fn) {
  threads = resolve_threads(threads);
  if (n == 0) return;
  if (threads <= 1 || n == 1) {
    detail::parallel_metrics().jobs_serial->inc();
    fn(std::size_t{0}, n);
    return;
  }
  const std::size_t workers = std::min(threads, n);
  {
    const auto& m = detail::parallel_metrics();
    m.jobs_threaded->inc();
    m.workers->inc(workers);
  }
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t lo = w * n / workers;
    const std::size_t hi = (w + 1) * n / workers;
    pool.emplace_back([&fn, lo, hi] { fn(lo, hi); });
  }
  for (auto& t : pool) t.join();
}

}  // namespace mfpa::ml
