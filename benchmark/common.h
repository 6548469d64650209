// Shared plumbing of the tapbench program: wall clock, allocation counter,
// the run configuration and the per-phase result record every workload
// fills in.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tapbench {

/// Allocations (operator new calls) made by the calling thread so far.
/// Defined next to the counting operator new in tapbench.cc.
[[nodiscard]] std::uint64_t thread_allocs() noexcept;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// num / den, or 0 when there is nothing to divide by.
[[nodiscard]] inline double ratio(double num, double den) noexcept {
  return den > 0.0 ? num / den : 0.0;
}

/// Settings shared by every workload of one tapbench process.
struct RunConfig {
  std::uint64_t seed = 1;    ///< already offset per workload
  double scale = 1.0;        ///< op-count multiplier; 1.0 = reference size
  std::size_t workers = 1;   ///< min(4, hardware threads): builders, waves
  std::string tmpdir;        ///< scratch for the persistent store backends
};

/// What one measured phase of a workload produced.  Counters cover the
/// measured ops only (warm-up excluded).
struct PhaseResult {
  std::uint64_t ops = 0;
  double seconds = 0.0;  ///< wall time of the measured ops
  /// Per-op wall latency samples in ns; batch workloads contribute one
  /// amortized sample (batch time / batch ops) per batch.
  std::vector<double> latency_ns;
  std::uint64_t msgs = 0;        ///< Transport::stats().messages delta
  std::uint64_t wire_bytes = 0;  ///< Transport::stats().bytes delta
  std::uint64_t allocs = 0;      ///< main-thread allocations
  std::uint64_t events = 0;      ///< EventQueue events fired by the workload
  std::uint64_t locates = 0, found = 0;  ///< locates with a live replica
  std::uint64_t hops = 0, hops_n = 0;    ///< summed over hops_n found locates
  double stretch_sum = 0.0;
  std::uint64_t stretch_n = 0;
  std::uint64_t failures = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions

  // Layer counters some workloads fill (zero elsewhere).
  std::uint64_t fails = 0;  ///< fail-stop victims during the phase
  std::uint64_t quorum_reads = 0, read_repairs = 0, rereplications = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_fallbacks = 0;
  double join_ms_per_node = 0.0, fail_ms_per_node = 0.0,
         leave_ms_per_node = 0.0;  ///< fastest wave of each kind
  std::uint64_t joins = 0, join_msgs = 0;

  void fail(const std::string& why) {
    ++failures;
    if (errors.size() < 8) errors.push_back(why);
  }
};

}  // namespace tapbench
