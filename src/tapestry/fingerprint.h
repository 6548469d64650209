// Order-sensitive FNV-1a fingerprints over a network's routing and object
// state — the witness for the parallel pipeline's determinism contract
// (same seed + any thread count => identical fingerprints).  Defined once
// here so tests/test_parallel_build.cc and bench/bench_parallel_build.cc
// gate the *same* contract: extending the fingerprint (new slot state, new
// record fields) updates the test and the CI perf gate together.
//
// Both walks visit live nodes in registry insertion order and require
// quiescence (they read tables and stores without synchronisation).  The
// tombstone census below is defined here for the same reason: the
// tests and bench_churn_threaded's gate count tombstones one way.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "src/tapestry/network.h"

namespace tap {

namespace detail {
class Fnv1a {
 public:
  void mix(std::uint64_t v) noexcept {
    h_ ^= v;
    h_ *= 1099511628211ull;
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};
}  // namespace detail

/// Every live node's routing state: occupancy masks, slot entries in
/// stored (distance) order with pin marks, and backpointers in ascending
/// id order.
[[nodiscard]] inline std::uint64_t fingerprint_tables(const Network& net) {
  detail::Fnv1a h;
  for (const auto& n : net.registry().nodes()) {
    if (!n->alive) continue;
    h.mix(n->id().value());
    const RoutingTable& t = n->table();
    for (unsigned l = 0; l < t.levels(); ++l) {
      h.mix(t.row_mask(l));
      for (unsigned j = 0; j < t.radix(); ++j) {
        const NeighborSet slot = t.at(l, j);
        for (const auto& e : slot.entries())
          h.mix(e.id.value() * 2 + (slot.pinned(e.id) ? 1 : 0));
      }
      for (const NodeId& b : t.backpointers(l)) h.mix(b.value());
    }
  }
  return h.value();
}

/// Invariant-convergent fingerprint for the thread-parallel join wave:
/// live membership plus every node's row occupancy pattern, visited in
/// sorted id order so registry insertion order (which depends on thread
/// scheduling) cannot leak in.  Under Property 1 the occupancy pattern is
/// a pure function of the membership set — slot (l, j) of node n is
/// non-empty iff a live node with prefix n[0..l)·j exists — so two runs
/// with the same seed and ANY worker count must produce identical values
/// here even though the *members* filling each slot (and therefore
/// fingerprint_tables) may differ with message ordering.  This is the
/// §4.4 convergence witness: same membership, no unfilled watched holes.
[[nodiscard]] inline std::uint64_t fingerprint_occupancy(const Network& net) {
  std::vector<const TapestryNode*> live;
  for (const auto& n : net.registry().nodes())
    if (n->alive) live.push_back(n.get());
  std::sort(live.begin(), live.end(),
            [](const TapestryNode* a, const TapestryNode* b) {
              return a->id() < b->id();
            });
  detail::Fnv1a h;
  for (const TapestryNode* n : live) {
    h.mix(n->id().value());
    const RoutingTable& t = n->table();
    for (unsigned l = 0; l < t.levels(); ++l) h.mix(t.row_mask(l));
  }
  return h.value();
}

/// Every live node's object pointers: (guid, server, last_hop) triples in
/// store iteration order.
[[nodiscard]] inline std::uint64_t fingerprint_stores(const Network& net) {
  detail::Fnv1a h;
  for (const auto& n : net.registry().nodes()) {
    if (!n->alive) continue;
    h.mix(n->id().value());
    for (const auto& [guid, rec] : n->store().snapshot()) {
      h.mix(guid.value());
      h.mix(rec.server.value());
      h.mix(rec.last_hop.has_value() ? rec.last_hop->value() + 1 : 0);
    }
  }
  return h.value();
}

/// The tombstones of a quiescent network, split by whether a live node
/// links with them — lists them in a slot, or keeps a backpointer to
/// them — and by whether their tables still hold members.
struct TombstoneCensus {
  std::size_t linked = 0;               ///< corpses a live node links with
  std::size_t linked_with_members = 0;  ///< ... whose tables hold members
  std::size_t unlinked = 0;             ///< corpses no live node links with
  std::size_t unlinked_freed = 0;       ///< ... whose tables hold none
};

[[nodiscard]] inline TombstoneCensus tombstone_census(const Network& net) {
  const NodeRegistry& reg = net.registry();
  std::unordered_set<std::uint64_t> linked;
  for (const auto& n : reg.nodes()) {
    if (!n->alive) continue;
    const RoutingTable& t = n->table();
    for (unsigned l = 0; l < t.levels(); ++l) {
      for (const NodeId& h : t.backpointers(l))
        if (!reg.is_live(h)) linked.insert(h.value());
      for (unsigned j = 0; j < t.radix(); ++j)
        for (const auto& e : t.at(l, j).entries())
          if (!reg.is_live(e.id)) linked.insert(e.id.value());
    }
  }
  TombstoneCensus c;
  for (const auto& n : reg.nodes()) {
    if (n->alive) continue;
    const bool freed = n->table().member_count() == 0;
    if (linked.count(n->id().value()) != 0) {
      ++c.linked;
      if (!freed) ++c.linked_with_members;
    } else {
      ++c.unlinked;
      if (freed) ++c.unlinked_freed;
    }
  }
  return c;
}

}  // namespace tap
