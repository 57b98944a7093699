// The thread-count convention and the one worker pool of the tree: a
// work-stealing loop (forest training, grid search, telemetry generation)
// and the block-partitioned loop built on it (batch inference, the GBDT
// round update).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace mfpa {

/// Resolves a "threads" setting: 0 = one per hardware core.
inline std::size_t resolve_threads(std::size_t threads) {
  return threads == 0
             ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
             : threads;
}

/// Calls fn(i) for every i in [0, n) on up to `threads` workers (0 = one
/// per core) that take the next index from a shared counter; runs inline
/// when one worker suffices. The first exception fn throws stops the
/// hand-out of further indices and is rethrown once every worker has
/// joined. Results are thread-count invariant when fn(i) writes only its
/// own slot.
template <typename Fn>
void parallel_for_each(std::size_t n, std::size_t threads, Fn&& fn) {
  const std::size_t workers = std::min(resolve_threads(threads), n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;
  auto work = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        next.store(n);
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  try {
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(work);
  } catch (...) {
    // A thread that failed to start: stop the ones that did, then report.
    next.store(n);
    for (auto& t : pool) t.join();
    throw;
  }
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

/// Calls fn(begin, end) over [0, n) split into one contiguous block per
/// worker, [w*n/W, (w+1)*n/W) for W = min(resolve_threads(threads), n). The
/// partition depends only on (n, W) and each index is in exactly one block,
/// so results are thread-count invariant whenever fn(i) is independent of
/// fn(j). Exceptions propagate as in parallel_for_each.
template <typename Fn>
void parallel_for_blocks(std::size_t n, std::size_t threads, Fn&& fn) {
  const std::size_t workers = std::min(resolve_threads(threads), n);
  parallel_for_each(workers, workers, [&](std::size_t w) {
    fn(w * n / workers, (w + 1) * n / workers);
  });
}

}  // namespace mfpa
