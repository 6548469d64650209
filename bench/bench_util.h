// Shared helpers for the experiment binaries (bench/bench_*.cc).
//
// Every experiment prints a standard header — experiment id, the paper
// artifact/claim it regenerates, and the space it ran on (with its measured
// expansion constant, since the paper's guarantees are parameterized by
// it) — followed by one or more aligned tables.  See DESIGN.md §4 for the
// experiment index and EXPERIMENTS.md for paper-vs-measured narratives.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/common/format.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/metric/analysis.h"
#include "src/metric/general.h"
#include "src/metric/ring.h"
#include "src/metric/torus.h"
#include "src/metric/transit_stub.h"
#include "src/tapestry/network.h"

namespace tap::bench {

inline void print_header(const std::string& exp_id,
                         const std::string& paper_claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", exp_id.c_str());
  std::printf("paper artifact: %s\n", paper_claim.c_str());
  std::printf("================================================================\n");
}

inline void print_space_info(const MetricSpace& space, std::uint64_t seed) {
  Rng rng(seed);
  const ExpansionEstimate e = estimate_expansion(space, rng, 24);
  std::printf("space: %s (n=%zu, expansion c: median %.2f, p90 %.2f)\n",
              space.name().c_str(), space.size(), e.median_ratio,
              e.p90_ratio);
}

inline std::unique_ptr<MetricSpace> make_space(const std::string& kind,
                                               std::size_t n, Rng& rng) {
  if (kind == "ring") return std::make_unique<RingMetric>(n, rng);
  if (kind == "torus") return std::make_unique<Torus2D>(n, rng);
  if (kind == "transit-stub")
    return std::make_unique<TransitStubMetric>(n, rng);
  if (kind == "euclid6d") return std::make_unique<HighDimEuclidean>(n, 6, rng);
  if (kind == "two-cluster") return std::make_unique<TwoClusterMetric>(n, rng);
  std::fprintf(stderr, "unknown space %s\n", kind.c_str());
  std::abort();
}

/// Counts every distance() call it forwards to the wrapped space — the
/// exact work figure behind the distance_evals gates.
class CountingSpace final : public MetricSpace {
 public:
  explicit CountingSpace(const MetricSpace& inner) : inner_(inner) {}
  [[nodiscard]] std::size_t size() const noexcept override {
    return inner_.size();
  }
  [[nodiscard]] double distance(Location a, Location b) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_.distance(a, b);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::uint64_t calls() const noexcept {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  const MetricSpace& inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

inline TapestryParams default_params() {
  TapestryParams p;
  p.id = IdSpec{4, 8};
  p.redundancy = 3;
  return p;
}

/// Grows an n-node network with the dynamic join protocol over locations
/// 0..n-1 (the space may be larger to leave headroom).
inline std::unique_ptr<Network> grow(const MetricSpace& space, std::size_t n,
                                     TapestryParams params,
                                     std::uint64_t seed,
                                     Trace* join_trace = nullptr) {
  auto net = std::make_unique<Network>(space, params, seed);
  net->bootstrap(0);
  for (std::size_t i = 1; i < n; ++i) net->join(i, std::nullopt, join_trace);
  return net;
}

/// Builds an n-node network with the static oracle (fast, for experiments
/// where construction is not what is measured).
inline std::unique_ptr<Network> build_static(const MetricSpace& space,
                                             std::size_t n,
                                             TapestryParams params,
                                             std::uint64_t seed) {
  auto net = std::make_unique<Network>(space, params, seed);
  for (std::size_t i = 0; i < n; ++i) net->insert_static(i);
  net->rebuild_static_tables();
  return net;
}

/// Mean RoutingTable::heap_bytes over the live nodes: what the routing
/// layer costs per node (members, slot offsets, pins, occupancy masks and
/// backpointers).  Deterministic for a deterministic build.
inline double table_bytes_per_node(const Network& net) {
  std::size_t bytes = 0;
  std::size_t live = 0;
  for (const auto& n : net.registry().nodes()) {
    if (!n->alive) continue;
    bytes += n->table().heap_bytes();
    ++live;
  }
  return live == 0 ? 0.0 : double(bytes) / double(live);
}

inline Guid bench_guid(const Network& net, std::uint64_t raw) {
  const IdSpec spec = net.params().id;
  return Guid(spec, splitmix64(raw ^ 0xbe9c4) & spec.mask());
}

}  // namespace tap::bench
