// Occupancy-bitmask invariants: the per-row masks RoutingTable maintains
// must mirror slot contents through every mutation path (insert, remove,
// pin/unpin, repair, full churn), the bitmask-driven Router::select_slot
// must agree digit-, hole- and member-for-member with the linear-scan
// reference (tests/select_slot_reference.h) under every member filter, the
// peek walk must equal the walk built from the reference selector, and the
// const peek read path must agree with the mutating walk.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "select_slot_reference.h"
#include "src/tapestry/routing_table.h"
#include "test_util.h"

namespace tap {
namespace {

using test::make_guid;
using test::small_params;

/// Full-table invariant: every slot's mask bit equals its non-emptiness,
/// and bits radix..63 of every row stay clear.
void expect_masks_mirror_slots(const RoutingTable& t) {
  for (unsigned l = 0; l < t.levels(); ++l) {
    const std::uint64_t row = t.row_mask(l);
    for (unsigned j = 0; j < t.radix(); ++j) {
      EXPECT_EQ(t.slot_empty(l, j), t.at(l, j).empty())
          << "level " << l << " digit " << j;
      EXPECT_EQ(occ::test(row, j), !t.at(l, j).empty())
          << "level " << l << " digit " << j;
    }
    for (unsigned b = t.radix(); b < 64; ++b)
      EXPECT_FALSE(occ::test(row, b)) << "stray bit " << b;
  }
}

TEST(OccupancyMask, TracksEveryMutation) {
  const IdSpec spec{4, 4};
  Rng rng(21);
  const NodeId self = Id::random(spec, rng);
  RoutingTable t(spec, self, 2);
  expect_masks_mirror_slots(t);  // self-entries seeded

  std::vector<std::pair<unsigned, NodeId>> members;  // (level, id)
  for (int op = 0; op < 2000; ++op) {
    const unsigned l = static_cast<unsigned>(rng.next_u64(spec.num_digits));
    switch (rng.next_u64(4)) {
      case 0: {  // insert
        const NodeId id = Id::random(spec, rng);
        if (id == self) break;
        if (t.consider(l, id.digit(l), id, rng.next_double()).inserted)
          members.emplace_back(l, id);
        break;
      }
      case 1: {  // remove a known member (or a random absentee)
        if (!members.empty() && rng.bernoulli(0.8)) {
          const auto [ml, id] = members[rng.next_u64(members.size())];
          t.remove(ml, id.digit(ml), id);
        } else {
          const NodeId id = Id::random(spec, rng);
          if (!(id == self)) t.remove(l, id.digit(l), id);
        }
        break;
      }
      case 2: {  // pin
        const NodeId id = Id::random(spec, rng);
        if (id == self) break;
        t.pin(l, id.digit(l), id, rng.next_double());
        members.emplace_back(l, id);
        break;
      }
      default: {  // unpin
        if (members.empty()) break;
        const auto [ml, id] = members[rng.next_u64(members.size())];
        std::vector<NodeId> evicted;
        t.unpin(ml, id.digit(ml), id, evicted);
        break;
      }
    }
    if (op % 50 == 0) expect_masks_mirror_slots(t);
  }
  expect_masks_mirror_slots(t);
}

TEST(OccupancyMask, ConsistentAfterFullChurn) {
  auto g = test::grow_ring_network(72, 31);
  Rng rng(5);
  // Joins, voluntary leaves, crashes, repair sweeps — every mesh-mutating
  // path in the system funnels through the RoutingTable wrappers.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) g.net->join(72 + round * 8 + i);
    auto ids = g.net->node_ids();
    g.net->leave(ids[rng.next_u64(ids.size())]);
    ids = g.net->node_ids();
    g.net->fail(ids[rng.next_u64(ids.size())]);
    g.net->heartbeat_sweep();
  }
  for (const auto& n : g.net->registry().nodes())
    expect_masks_mirror_slots(n->table());  // tombstones included
}

TEST(OccupancyMask, OneWordRowsRadix64) {
  const IdSpec spec{6, 4};  // radix 64: the widest row, one full word
  const NodeId self(spec, 0xA81234u);  // digit 0 = 42
  RoutingTable t(spec, self, 2);
  expect_masks_mirror_slots(t);

  // Both ends of the word and both halves around bit 32.
  for (const unsigned digit : {0u, 1u, 31u, 32u, 62u, 63u}) {
    t.consider(0, digit, self.with_digit(0, digit), 1.0 + digit);
    EXPECT_FALSE(t.slot_empty(0, digit));
  }
  expect_masks_mirror_slots(t);

  std::uint64_t row = t.row_mask(0);
  EXPECT_EQ(occ::next(row, 2), 31u);
  EXPECT_EQ(occ::next(row, 43), 62u);
  EXPECT_EQ(occ::next(row, 63), 63u);
  EXPECT_EQ(occ::next(row, 64), occ::kNone);  // the PRR scan's j + 1
  EXPECT_EQ(occ::prev(row, 63), 63u);
  EXPECT_EQ(occ::prev(row, 41), 32u);
  EXPECT_EQ(occ::prev(row, 0), 0u);
  EXPECT_EQ(occ::next_wrap(row, 33), 42u);  // the self slot
  EXPECT_EQ(occ::next_wrap(row, 63), 63u);

  // With slot 63 gone the scan past 62 wraps to the lowest slot.
  t.remove(0, 63, self.with_digit(0, 63));
  expect_masks_mirror_slots(t);
  row = t.row_mask(0);
  EXPECT_EQ(occ::next(row, 63), occ::kNone);
  EXPECT_EQ(occ::next_wrap(row, 63), 0u);
  t.remove(0, 0, self.with_digit(0, 0));
  EXPECT_EQ(occ::next_wrap(t.row_mask(0), 63), 1u);
  expect_masks_mirror_slots(t);
}

// ---------------------------------------------------------------------
// select_slot: bitmask fast path vs the linear-scan reference
// ---------------------------------------------------------------------

/// Probes select_slot at random live nodes, levels and digits under a
/// random member filter — an exclude sample drawn from every registered id
/// (tombstones included) and `live_only` — and requires the reference's
/// digit, past-hole flag and member.  The member-less form must pick the
/// same digit.
void expect_select_agreement(const Network& net, std::uint64_t seed) {
  Rng rng(seed);
  const Router& router = net.router();
  const NodeRegistry& reg = net.registry();
  const unsigned digits = net.params().id.num_digits;
  const unsigned radix = net.params().id.radix();
  const auto live = net.node_ids();
  std::vector<NodeId> all;
  for (const auto& n : reg.nodes()) all.push_back(n->id());
  for (int probe = 0; probe < 4000; ++probe) {
    const TapestryNode& at = net.node(live[rng.next_u64(live.size())]);
    const unsigned level = static_cast<unsigned>(rng.next_u64(digits));
    const unsigned desired = static_cast<unsigned>(rng.next_u64(radix));
    const bool start_hole = rng.bernoulli(0.3);
    const bool live_only = rng.bernoulli(0.5);

    // Optional exclude set: a random sample of registered ids.
    Router::ExcludeSet exclude;
    const bool use_exclude = rng.bernoulli(0.3);
    if (use_exclude)
      for (int k = 0; k < 12; ++k)
        exclude.insert(all[rng.next_u64(all.size())].value());
    const Router::ExcludeSet* ex = use_exclude ? &exclude : nullptr;

    bool hole_fast = start_hole, hole_ref = start_hole, hole_bare = start_hole;
    NodeId m_fast;
    NodeId m_ref;
    const auto fast = router.select_slot(at, level, desired, hole_fast, ex,
                                         live_only, &m_fast);
    const auto ref = select_slot_reference(reg, at, level, desired, hole_ref,
                                           ex, live_only, &m_ref);
    const auto bare =
        router.select_slot(at, level, desired, hole_bare, ex, live_only);
    ASSERT_EQ(fast, ref) << "level " << level << " desired " << desired
                         << " live_only " << live_only;
    ASSERT_EQ(hole_fast, hole_ref) << "past_hole divergence";
    ASSERT_EQ(m_fast, m_ref) << "reported member divergence";
    ASSERT_EQ(fast.has_value(), m_fast.valid());
    ASSERT_EQ(bare, fast) << "member-less selection diverged";
    ASSERT_EQ(hole_bare, hole_fast);
  }
}

/// A grown ring after `corpses` unrepaired fail()s: tables still list the
/// dead, which only a live-only filter skips.
test::GrownNetwork grown_with_corpses(RoutingMode mode, std::size_t n,
                                      int corpses, std::uint64_t seed) {
  auto g = test::grow_ring_network(n, seed, small_params(mode));
  Rng rng(seed ^ 0xdead);
  for (int i = 0; i < corpses; ++i) {
    const auto ids = g.net->node_ids();
    g.net->fail(ids[rng.next_u64(ids.size())]);
  }
  return g;
}

/// Cuts the live overlay in half/half (registration order).
void cut_in_half(Network& net) {
  const auto ids = net.node_ids();
  net.set_partition(
      std::vector<NodeId>(ids.begin() + ids.size() / 2, ids.end()));
}

TEST(SelectSlot, BitmaskAgreesWithReferenceNative) {
  auto g = test::static_ring_network(128, 3,
                                     small_params(RoutingMode::kTapestryNative));
  expect_select_agreement(*g.net, 91);
}

TEST(SelectSlot, BitmaskAgreesWithReferencePrr) {
  auto g =
      test::static_ring_network(128, 3, small_params(RoutingMode::kPrrLike));
  expect_select_agreement(*g.net, 92);
}

TEST(SelectSlot, AgreesOnSparseGrownTablesWithHoles) {
  // A small grown network has rows dominated by holes at deep levels —
  // the wrap-around scans where the bitmask shortcut must still match.
  auto g = test::grow_ring_network(24, 13);
  expect_select_agreement(*g.net, 93);
}

TEST(SelectSlot, AgreesOverCorpsesAndPartitionBothModes) {
  for (const RoutingMode mode :
       {RoutingMode::kTapestryNative, RoutingMode::kPrrLike}) {
    SCOPED_TRACE(mode == RoutingMode::kPrrLike ? "prr" : "native");
    auto g = grown_with_corpses(mode, 96, 12, 41);
    expect_select_agreement(*g.net, 94);
    cut_in_half(*g.net);
    expect_select_agreement(*g.net, 95);
  }
}

// ---------------------------------------------------------------------
// Peek walk vs the walk built from the reference selector
// ---------------------------------------------------------------------

/// The peek walk rebuilt hop by hop from select_slot_reference with
/// `live_only`: the next hop is the chosen slot's first usable member.
RouteResult reference_peek_walk(const Network& net, NodeId from,
                                const Guid& target) {
  const NodeRegistry& reg = net.registry();
  RouteResult res;
  res.path.push_back(from);
  RouteState state;
  while (state.level < net.params().id.num_digits) {
    NodeId m;
    const auto j = select_slot_reference(
        reg, reg.checked(res.path.back()), state.level,
        target.digit(state.level), state.past_hole, nullptr,
        /*live_only=*/true, &m);
    if (!j.has_value()) throw CheckError("reference: row with no live slot");
    ++state.level;
    if (m == res.path.back()) continue;  // self-advance
    res.path.push_back(m);
    ++res.hops;
    if (state.past_hole) ++res.surrogate_hops;
  }
  res.root = res.path.back();
  return res;
}

TEST(PeekRoute, EqualsWalkBuiltFromReferenceSelector) {
  for (const RoutingMode mode :
       {RoutingMode::kTapestryNative, RoutingMode::kPrrLike}) {
    SCOPED_TRACE(mode == RoutingMode::kPrrLike ? "prr" : "native");
    auto g = grown_with_corpses(mode, 96, 12, 43);
    for (const bool cut : {false, true}) {
      if (cut) cut_in_half(*g.net);
      Rng rng(cut ? 47 : 46);
      const auto live = g.net->node_ids();
      for (int q = 0; q < 200; ++q) {
        const Guid guid = make_guid(*g.net, 7000 + q);
        const NodeId src = live[rng.next_u64(live.size())];
        const RouteResult peek = g.net->router().route_to_root_peek(src, guid);
        const RouteResult ref = reference_peek_walk(*g.net, src, guid);
        ASSERT_EQ(peek.path, ref.path) << "cut " << cut << " query " << q;
        ASSERT_EQ(peek.surrogate_hops, ref.surrogate_hops);
        ASSERT_EQ(peek.root, ref.root);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Peek (const, mutation-free) vs mutating route agreement
// ---------------------------------------------------------------------

TEST(PeekRoute, AgreesWithMutatingWalkHealthyAndRepaired) {
  auto g = test::grow_ring_network(64, 17);
  auto compare_routes = [&](std::uint64_t salt) {
    Rng rng(salt);
    const auto ids = g.net->node_ids();
    for (int q = 0; q < 40; ++q) {
      const Guid guid = make_guid(*g.net, salt * 1000 + q);
      const NodeId src = ids[rng.next_u64(ids.size())];
      // Peek first: it must not perturb what the mutating walk then sees.
      const RouteResult peek = g.net->router().route_to_root_peek(src, guid);
      const RouteResult walk = g.net->route_to_root(src, guid);
      EXPECT_EQ(peek.root, walk.root) << "root divergence";
      EXPECT_EQ(peek.hops, walk.hops);
      EXPECT_EQ(peek.path, walk.path);
      EXPECT_DOUBLE_EQ(peek.latency, walk.latency);
    }
  };
  compare_routes(1);

  // Crash a few nodes and repair; the steady state must agree again.
  Rng rng(23);
  for (int i = 0; i < 5; ++i) {
    const auto ids = g.net->node_ids();
    g.net->fail(ids[rng.next_u64(ids.size())]);
  }
  g.net->heartbeat_sweep();
  compare_routes(2);
}

}  // namespace
}  // namespace tap
