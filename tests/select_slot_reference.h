// The pre-bitmask linear slot scan (§2.3), kept outside the library as the
// correctness oracle for Router::select_slot: tests assert that both agree
// on the digit, the past-hole flag and the reported member, that peek walks
// built from either selector coincide, and bench_micro measures the
// occupancy-bitmask speedup against it.  It probes every slot of the row in
// turn and reads every slot's members, whatever the filter.
#pragma once

#include <optional>

#include "src/tapestry/router.h"

namespace tap {

/// Router::select_slot by linear scan: the same arguments, member filter
/// and results, with `reg` standing in for the router (it supplies the
/// routing mode, the partition and liveness).
inline std::optional<unsigned> select_slot_reference(
    const NodeRegistry& reg, const TapestryNode& at, unsigned level,
    unsigned desired, bool& past_hole,
    const Router::ExcludeSet* exclude = nullptr, bool live_only = false,
    NodeId* member = nullptr) {
  const TapestryParams& params = reg.params();
  const unsigned radix = params.id.radix();
  // First member of slot j passing the filter (members are distance-sorted).
  auto usable = [&](unsigned j) -> std::optional<NodeId> {
    for (const auto& e : at.table().at(level, j).entries()) {
      if (exclude != nullptr && exclude->count(e.id.value()) != 0) continue;
      if (!reg.reachable(at.id(), e.id)) continue;
      if (live_only && !reg.is_live(e.id)) continue;
      return e.id;
    }
    return std::nullopt;
  };
  auto chose = [&](unsigned j, const NodeId& m) {
    if (member != nullptr) *member = m;
    return std::optional<unsigned>(j);
  };
  // Number of matching leading bits between two digits.
  auto leading_bit_match = [&](unsigned a, unsigned b) {
    unsigned n = 0;
    for (unsigned i = 0; i < params.id.digit_bits; ++i) {
      const unsigned mask = 1u << (params.id.digit_bits - 1 - i);
      if ((a & mask) != (b & mask)) break;
      ++n;
    }
    return n;
  };

  if (params.routing == RoutingMode::kTapestryNative) {
    for (unsigned off = 0; off < radix; ++off) {
      const unsigned j = (desired + off) % radix;
      if (const auto m = usable(j)) {
        if (j != desired) past_hole = true;
        return chose(j, *m);
      }
    }
    return std::nullopt;
  }

  // RoutingMode::kPrrLike.
  if (!past_hole) {
    if (const auto m = usable(desired)) return chose(desired, *m);
    past_hole = true;
    // First hole: best leading-bit match, ties to the higher digit.
    std::optional<unsigned> best;
    NodeId best_member;
    unsigned best_score = 0;
    for (unsigned j = 0; j < radix; ++j) {
      const auto m = usable(j);
      if (!m.has_value()) continue;
      const unsigned score = leading_bit_match(j, desired);
      if (!best.has_value() || score > best_score ||
          (score == best_score && j > *best)) {
        best = j;
        best_member = *m;
        best_score = score;
      }
    }
    if (!best.has_value()) return std::nullopt;
    return chose(*best, best_member);
  }
  // After the first hole: numerically highest filled digit.
  for (unsigned j = radix; j-- > 0;)
    if (const auto m = usable(j)) return chose(j, *m);
  return std::nullopt;
}

}  // namespace tap
