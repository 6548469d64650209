// Fork-join parallel loops.  parallel_for starts its worker threads on
// every call and joins them before returning; there is no standing pool.
//
// The library runs its parallel phases on it: bulk registration, static
// table builds, batched publishes, and join, repair and leave waves.
// Those callers bring their own synchronisation (stripe locks, per-task
// Traces) and their own determinism argument.  The benchmark harness and
// heavyweight tests use run_trials, where each trial owns an independent
// simulator instance seeded from the trial index, so results come back in
// trial order whatever the thread count.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace tap {

/// Number of workers to use by default: hardware concurrency, at least 1.
[[nodiscard]] std::size_t default_worker_count() noexcept;

/// Runs fn(i) for i in [0, count) across `workers` threads (0 = hardware
/// concurrency; 1 runs inline).  Workers claim the next index from a
/// shared atomic counter, so which thread runs which i depends on timing.
/// Blocks until all iterations complete.  The first exception thrown by
/// any iteration is rethrown on the caller's thread (after all workers
/// have joined).
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn,
                  std::size_t workers = 0);

/// Runs `count` independent trials, each producing a value of type T, and
/// returns the results in trial order (deterministic reduction).
template <typename T>
[[nodiscard]] std::vector<T> run_trials(
    std::size_t count, const std::function<T(std::size_t)>& trial,
    std::size_t workers = 0) {
  std::vector<T> results(count);
  parallel_for(
      count, [&](std::size_t i) { results[i] = trial(i); }, workers);
  return results;
}

}  // namespace tap
