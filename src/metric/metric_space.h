// MetricSpace: the network-distance substrate underneath the overlay.
//
// The paper analyses Tapestry over a metric space with the even-growth
// ("expansion") property of Equation 1: |B_A(2r)| <= c * |B_A(r)|.  The
// simulator separates the *overlay* (Tapestry nodes, identified by NodeId)
// from the *underlay* (points in a metric space, identified by location
// index): each overlay node is pinned to one location, and every message
// between overlay nodes costs the metric distance between their locations.
//
// Concrete spaces provided:
//   RingMetric        1-D ring (expansion c ~= 2) — the "nice" space where
//                     b > c^2 comfortably holds for hex digits (b = 16).
//   Torus2D           2-D torus (c ~= 4) — the marginal case b = c^2.
//   Euclidean2D       2-D unit square without wrap-around (boundary effects).
//   TransitStubMetric graph shortest-path transit-stub topology (paper §6.2).
//   HighDimEuclidean  d-dimensional cube — high expansion, used for the
//                     general-metric scheme of §7.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace tap {

/// Index of a point in the underlay.  Overlay nodes map 1:1 onto locations.
using Location = std::size_t;

/// Abstract finite metric space.  Implementations must satisfy symmetry,
/// identity of indiscernibles (distinct sampled points have positive
/// distance almost surely) and the triangle inequality; tests/test_metric.cc
/// verifies these properties on random triples for every space.
class MetricSpace {
 public:
  virtual ~MetricSpace() = default;

  /// Number of locations available.  Valid locations are [0, size()).
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;

  /// Distance between two locations.  Must be symmetric and obey the
  /// triangle inequality.  The static table builder
  /// (MaintenanceEngine::rebuild_static_tables) relies on the latter: it
  /// prunes candidates by |d(x, p) - d(c, p)| <= d(x, c), so a space that
  /// violates it by more than the builder's slack (1e-9 of the largest
  /// pivot distance) would get wrong tables.  tests/test_metric.cc checks
  /// it for every space.
  [[nodiscard]] virtual double distance(Location a, Location b) const = 0;

  /// Human-readable name used in benchmark tables.
  [[nodiscard]] virtual std::string name() const = 0;

  MetricSpace() = default;
  MetricSpace(const MetricSpace&) = delete;
  MetricSpace& operator=(const MetricSpace&) = delete;
};

}  // namespace tap
