// Data-structure semantics: a routing-table slot's capacity/eviction/
// pinning rules (checked against the per-slot reference container),
// RoutingTable self-entries, packed growth, stored form and id checks,
// backpointers (checked against a per-level set), ObjectStore records and
// soft-state expiry.
#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "neighbor_set_reference.h"
#include "src/tapestry/object_store.h"
#include "src/tapestry/routing_table.h"
#include "test_util.h"

namespace tap {
namespace {

const IdSpec kSpec{4, 4};

NodeId nid(std::uint64_t v) { return NodeId(kSpec, v); }

// ------------------------------------------------------------ NeighborSet

/// Slot (0, 0) of a table owned by 0xF000: the owner's self-entries sit in
/// other slots, and every id below 0x1000 carries the slot's digit.
struct Slot {
  explicit Slot(unsigned capacity) : table(kSpec, nid(0xF000), capacity) {}

  RoutingTable::ConsiderResult consider(NodeId id, double dist) {
    return table.consider(0, 0, id, dist);
  }
  bool remove(const NodeId& id) { return table.remove(0, 0, id); }
  void pin(NodeId id, double dist) { table.pin(0, 0, id, dist); }
  void unpin(const NodeId& id, std::vector<NodeId>& evicted) {
    table.unpin(0, 0, id, evicted);
  }
  [[nodiscard]] NeighborSet view() const { return table.at(0, 0); }

  RoutingTable table;
};

TEST(NeighborSet, KeepsClosestUpToCapacity) {
  Slot set(2);
  EXPECT_TRUE(set.consider(nid(1), 5.0).inserted);
  EXPECT_TRUE(set.consider(nid(2), 3.0).inserted);
  EXPECT_EQ(*set.view().primary(), nid(2));

  // Farther candidate bounces off a full set.
  const auto r = set.consider(nid(3), 9.0);
  EXPECT_FALSE(r.inserted);
  EXPECT_FALSE(r.evicted.has_value());
  EXPECT_EQ(set.view().size(), 2u);

  // Closer candidate evicts the farthest member.
  const auto r2 = set.consider(nid(4), 1.0);
  EXPECT_TRUE(r2.inserted);
  ASSERT_TRUE(r2.evicted.has_value());
  EXPECT_EQ(*r2.evicted, nid(1));
  EXPECT_EQ(*set.view().primary(), nid(4));
}

TEST(NeighborSet, EntriesSortedByDistanceThenId) {
  Slot set(4);
  set.consider(nid(5), 2.0);
  set.consider(nid(3), 2.0);
  set.consider(nid(9), 1.0);
  const auto e = set.view().entries();
  ASSERT_EQ(e.size(), 3u);
  EXPECT_EQ(e[0].id, nid(9));
  EXPECT_EQ(e[1].id, nid(3));  // distance tie broken by id
  EXPECT_EQ(e[2].id, nid(5));
}

TEST(NeighborSet, ReconsiderUpdatesDistance) {
  Slot set(3);
  set.consider(nid(1), 5.0);
  set.consider(nid(2), 1.0);
  EXPECT_EQ(*set.view().primary(), nid(2));
  // Node 1 moved closer (relocation): same member, new rank.
  EXPECT_TRUE(set.consider(nid(1), 0.5).inserted);
  EXPECT_EQ(*set.view().primary(), nid(1));
  EXPECT_EQ(set.view().size(), 2u);
}

TEST(NeighborSet, RemoveAndContains) {
  Slot set(2);
  set.consider(nid(1), 1.0);
  EXPECT_TRUE(set.view().contains(nid(1)));
  EXPECT_TRUE(set.remove(nid(1)));
  EXPECT_FALSE(set.remove(nid(1)));
  EXPECT_FALSE(set.view().contains(nid(1)));
  EXPECT_TRUE(set.view().empty());
}

TEST(NeighborSet, TieBreaksDeterministicallyById) {
  // Equal distances order by id, so the set contents converge to the same
  // answer regardless of insertion order (static-vs-grown equivalence).
  Slot set(1);
  set.consider(nid(1), 2.0);
  const auto r = set.consider(nid(0), 2.0);  // same distance, smaller id
  EXPECT_TRUE(r.inserted);
  EXPECT_EQ(*r.evicted, nid(1));
  EXPECT_EQ(*set.view().primary(), nid(0));
  // The mirror case: a larger id at the same distance bounces off.
  const auto r2 = set.consider(nid(2), 2.0);
  EXPECT_FALSE(r2.inserted);
  EXPECT_EQ(*set.view().primary(), nid(0));
}

TEST(NeighborSet, PinnedMembersExceedCapacity) {
  Slot set(1);
  set.consider(nid(1), 1.0);
  set.pin(nid(2), 9.0);  // pinned insert ignores capacity
  EXPECT_EQ(set.view().size(), 2u);
  EXPECT_EQ(set.view().pinned_members(), (std::vector<NodeId>{nid(2)}));
  EXPECT_EQ(set.view().unpinned_count(), 1u);

  // A closer unpinned candidate evicts the unpinned member, never the pin.
  const auto r = set.consider(nid(3), 0.5);
  EXPECT_TRUE(r.inserted);
  EXPECT_EQ(*r.evicted, nid(1));
  EXPECT_TRUE(set.view().contains(nid(2)));
}

TEST(NeighborSet, UnpinRestoresCapacityPressure) {
  Slot set(1);
  set.consider(nid(1), 1.0);
  set.pin(nid(2), 9.0);
  std::vector<NodeId> evicted;
  set.unpin(nid(2), evicted);
  // Now over capacity: the farthest unpinned member (2) must go.
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], nid(2));
  EXPECT_EQ(set.view().size(), 1u);
  EXPECT_TRUE(set.view().contains(nid(1)));
}

TEST(NeighborSet, PinExistingMember) {
  Slot set(2);
  set.consider(nid(1), 1.0);
  set.pin(nid(1), 1.0);
  EXPECT_EQ(set.view().pinned_members(), (std::vector<NodeId>{nid(1)}));
  EXPECT_EQ(set.view().size(), 1u);  // no duplicate
}

TEST(NeighborSet, ZeroCapacityRejected) {
  EXPECT_THROW(RoutingTable(kSpec, nid(0xF000), 0), CheckError);
}

// ------------------------------------- packed table vs per-slot reference

/// Drives `ops` random consider / remove / pin / unpin calls into one
/// table and, call for call, into one reference::NeighborSet per slot.
/// After every call it compares the call's result, each slot's (id,
/// distance, pinned) sequence and every row mask.
void expect_table_matches_reference(IdSpec spec, unsigned r,
                                    std::uint64_t seed, int ops) {
  SCOPED_TRACE(::testing::Message() << "radix " << spec.radix() << " R "
                                    << r << " seed " << seed);
  Rng rng(seed);
  const unsigned levels = spec.num_digits;
  const unsigned radix = spec.radix();
  const NodeId self(spec, rng() & spec.mask());
  RoutingTable table(spec, self, r);
  std::vector<reference::NeighborSet> ref(levels * radix,
                                          reference::NeighborSet(r));
  for (unsigned l = 0; l < levels; ++l)
    ref[l * radix + self.digit(l)].consider(self, 0.0);

  // A small pool of ids per slot, each carrying the slot's prefix, so
  // removals and unpins mostly hit members and pins can push a slot past
  // R.
  constexpr std::uint64_t kPool = 6;
  auto candidate = [&](unsigned l, unsigned j, std::uint64_t k) {
    NodeId id(spec, splitmix64(seed ^ ((l * radix + j) * kPool + k)) &
                        spec.mask());
    for (unsigned i = 0; i < l; ++i) id = id.with_digit(i, self.digit(i));
    return id.with_digit(l, j);
  };

  // Plain comparisons, one assertion per slot: the check runs on every
  // slot after every op.
  auto same = [](const NeighborSet& got, const reference::NeighborSet& want) {
    if (got.size() != want.size() ||
        got.unpinned_count() != want.unpinned_count())
      return false;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const reference::NeighborEntry& w = want.entries()[i];
      if (!(got.entries()[i].id == w.id) || got.entries()[i].dist != w.dist ||
          got.pinned(w.id) != w.pinned)
        return false;
    }
    return true;
  };
  auto expect_all_slots_match = [&](int op) {
    for (unsigned l = 0; l < levels; ++l) {
      std::uint64_t mask = 0;
      for (unsigned j = 0; j < radix; ++j) {
        const reference::NeighborSet& want = ref[l * radix + j];
        ASSERT_TRUE(same(table.at(l, j), want))
            << "slot (" << l << ", " << j << ") after op " << op;
        if (!want.empty()) mask |= std::uint64_t{1} << j;
      }
      ASSERT_EQ(table.row_mask(l), mask) << "row " << l << " after op " << op;
    }
  };

  // Pins as a §4.4 insertion leaves them: a few at a time across the
  // table, each released soon after.  `held` lists the pins set so far
  // (a removal may have dropped one already; unpinning it is then a
  // no-op on both sides).
  constexpr std::size_t kMaxPins = 6;
  std::vector<std::pair<unsigned, NodeId>> held;  // (slot, id)
  for (int op = 0; op < ops; ++op) {
    auto l = static_cast<unsigned>(rng.next_u64(levels));
    auto j = static_cast<unsigned>(rng.next_u64(radix));
    NodeId id = candidate(l, j, rng.next_u64(kPool));
    // Few distinct distances, so (distance, id) ties are common.
    const auto dist = static_cast<double>(rng.next_u64(5));
    std::uint64_t kind = rng.next_u64(20);
    if (kind >= 13 && kind < 16 && held.size() >= kMaxPins) kind = 0;
    if (kind >= 16 && !held.empty() && rng.next_u64(4) != 0) {
      const std::size_t k = rng.next_u64(held.size());
      l = held[k].first / radix;
      j = held[k].first % radix;
      id = held[k].second;
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(k));
    }
    reference::NeighborSet& want = ref[l * radix + j];
    if (kind < 10) {
      const auto got = table.consider(l, j, id, dist);
      const auto exp = want.consider(id, dist);
      ASSERT_EQ(got.inserted, exp.inserted);
      ASSERT_EQ(got.evicted, exp.evicted);
    } else if (kind < 13) {
      ASSERT_EQ(table.remove(l, j, id), want.remove(id));
    } else if (kind < 16) {
      table.pin(l, j, id, dist);
      want.pin(id, dist);
      held.emplace_back(l * radix + j, id);
    } else {
      std::vector<NodeId> got, exp;
      table.unpin(l, j, id, got);
      want.unpin(id, exp);
      ASSERT_EQ(got, exp);
    }
    expect_all_slots_match(op);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(NeighborSet, PackedTableMatchesPerSlotReference) {
  const IdSpec specs[] = {IdSpec{1, 12}, IdSpec{4, 4}, IdSpec{6, 3}};
  for (const IdSpec& spec : specs)
    for (unsigned r = 1; r <= 3; ++r)
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        expect_table_matches_reference(spec, r, seed * 7919 + r, 10'000);
        if (HasFatalFailure()) return;
      }
}

// ----------------------------------------------------------- RoutingTable

TEST(RoutingTable, SelfEntriesSeedEveryLevel) {
  const NodeId self = nid(0x1A2F);
  RoutingTable table(kSpec, self, 2);
  EXPECT_EQ(*table.primary(0, 0x1), self);
  EXPECT_EQ(*table.primary(1, 0xA), self);
  EXPECT_EQ(*table.primary(2, 0x2), self);
  EXPECT_EQ(*table.primary(3, 0xF), self);
  // Other slots start empty.
  EXPECT_FALSE(table.primary(0, 0x2).has_value());
  EXPECT_EQ(table.total_entries(), 0u);  // self-entries not counted as links
}

TEST(RoutingTable, RowHasOtherDetectsCompany) {
  const NodeId self = nid(0x1000);
  RoutingTable table(kSpec, self, 2);
  EXPECT_FALSE(table.row_has_other(0));
  table.consider(0, 0x2, nid(0x2AAA), 1.0);
  EXPECT_TRUE(table.row_has_other(0));
  EXPECT_FALSE(table.row_has_other(1));
}

TEST(RoutingTable, RowMembersAndAllNeighbors) {
  const NodeId self = nid(0x1000);
  RoutingTable table(kSpec, self, 2);
  table.consider(0, 0x2, nid(0x2AAA), 1.0);
  table.consider(1, 0x3, nid(0x13BB), 2.0);
  const auto row0 = table.row_members(0);
  EXPECT_EQ(row0.size(), 2u);  // self + 2AAA
  const auto all = table.all_neighbors();
  EXPECT_EQ(all.size(), 2u);  // self excluded
  EXPECT_EQ(table.total_entries(), 2u);
}

TEST(RoutingTable, StaticBuildReservesExactMemberCount) {
  // The builder reserves min(R, |bucket|) members per slot up front, so a
  // built table's member array has no slack.
  auto g = test::static_ring_network(96, 17);
  for (const NodeId& id : g.ids) {
    const RoutingTable& t = g.net->node(id).table();
    EXPECT_EQ(t.member_capacity(), t.member_count()) << id.to_string();
  }
}

TEST(RoutingTable, MemberArrayGrowsByFixedStep) {
  // A fresh table holds one self-entry per level, exactly; the first link
  // past that grows the array by kGrowStep, not by doubling.
  RoutingTable table(kSpec, nid(0xF000), 3);
  EXPECT_EQ(table.member_count(), 4u);
  EXPECT_EQ(table.member_capacity(), 4u);
  table.consider(0, 0, nid(1), 1.0);
  EXPECT_EQ(table.member_capacity(), 4u + RoutingTable::kGrowStep);
  // kGrowStep more members, one per slot (0, i), fill the step and
  // trigger the next one.
  for (unsigned i = 1; i <= RoutingTable::kGrowStep; ++i)
    table.consider(0, i, nid(std::uint64_t{i} << 12), 1.0);
  EXPECT_EQ(table.member_capacity(), 4u + 2 * RoutingTable::kGrowStep);
}

TEST(RoutingTable, HeapBytesCountEightBytesPerId) {
  // Every id is stored as its 8-byte value under the table's spec: a
  // member is 16 bytes ({id, distance}) and a backpointer 8.  Beside them
  // a kSpec table (4 levels of 16 slots) holds 65 uint16_t slot offsets,
  // one mask word per level and one backpointer vector header per level.
  RoutingTable table(kSpec, nid(0x1000), 2);
  const std::size_t fixed =
      65 * 2 + 4 * 8 + 4 * sizeof(std::vector<std::uint64_t>);
  ASSERT_EQ(table.member_capacity(), 4u);  // the four self-entries
  EXPECT_EQ(table.heap_bytes(), fixed + 4 * 16);

  // Five links (members 4 -> 9, capacity 4 -> 12 by fixed steps), five
  // holders at level 1 (capacity 8) and one at level 2 (capacity 4).
  for (std::uint64_t j = 2; j <= 6; ++j)
    table.consider(0, static_cast<unsigned>(j), nid(j << 12), 1.0);
  for (const std::uint64_t v : {0x1100, 0x1200, 0x1300, 0x1400, 0x1500})
    table.add_backpointer(1, nid(v));
  table.add_backpointer(2, nid(0x1010));
  ASSERT_EQ(table.member_capacity(), 12u);
  EXPECT_EQ(table.heap_bytes(), fixed + 12 * 16 + (8 + 4) * 8);
}

/// Everything a table holds, for "left unchanged" checks: its footprint,
/// each row mask, each slot's (id, distance, pinned) run and each level's
/// backpointers.
std::vector<double> table_state(const RoutingTable& t) {
  std::vector<double> s{static_cast<double>(t.heap_bytes()),
                        static_cast<double>(t.member_count())};
  for (unsigned l = 0; l < t.levels(); ++l) {
    s.push_back(static_cast<double>(t.row_mask(l)));
    for (unsigned j = 0; j < t.radix(); ++j) {
      const NeighborSet slot = t.at(l, j);
      s.push_back(static_cast<double>(slot.size()));
      for (const NeighborEntry& e : slot.entries()) {
        s.push_back(static_cast<double>(e.id.value()));
        s.push_back(e.dist);
        s.push_back(slot.pinned(e.id) ? 1.0 : 0.0);
      }
    }
    const RoutingTable::Backpointers bp = t.backpointers(l);
    s.push_back(static_cast<double>(bp.size()));
    for (const NodeId& b : bp) s.push_back(static_cast<double>(b.value()));
  }
  return s;
}

TEST(RoutingTable, RejectsIdsOfAnotherSpec) {
  // A table stores bare id values, so an id of another spec whose value
  // is in range would alias one of the table's own.  Every call that
  // takes an id refuses it and leaves the table as it was.
  RoutingTable table(kSpec, nid(0x1000), 2);
  table.consider(0, 0x2, nid(0x2AAA), 1.0);
  table.add_backpointer(1, nid(0x1234));
  const IdSpec other{2, 8};  // also 16 bits: every kSpec value fits
  const NodeId member(other, 0x2AAA);
  const NodeId holder(other, 0x1234);
  const NodeId stranger(other, 0x3BBB);
  const auto before = table_state(table);
  std::vector<NodeId> evicted;
  EXPECT_THROW(table.consider(0, 0x2, member, 0.5), CheckError);
  EXPECT_THROW(table.consider(0, 0x3, stranger, 0.5), CheckError);
  EXPECT_THROW(table.pin(0, 0x2, member, 0.5), CheckError);
  EXPECT_THROW(table.pin(0, 0x3, stranger, 0.5), CheckError);
  EXPECT_THROW(table.remove(0, 0x2, member), CheckError);
  EXPECT_THROW(table.unpin(0, 0x2, member, evicted), CheckError);
  EXPECT_THROW(table.add_backpointer(1, holder), CheckError);
  EXPECT_THROW(table.add_backpointer(1, stranger), CheckError);
  EXPECT_THROW(table.append_backpointer(1, stranger), CheckError);
  EXPECT_THROW(table.remove_backpointer(1, holder), CheckError);
  EXPECT_THROW((void)table.has_backpointer(1, holder), CheckError);
  // A default-constructed id carries no spec at all.
  EXPECT_THROW(table.add_backpointer(1, NodeId{}), CheckError);
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(table_state(table), before);
}

TEST(RoutingTable, MemberCountPastOffsetRangeFailsCheck) {
  // Slot offsets are 16-bit: the 65536th member must be refused, not wrap.
  const IdSpec spec{6, 10};
  RoutingTable table(spec, NodeId(spec, 0), 100'000);
  const std::size_t limit = std::numeric_limits<std::uint16_t>::max();
  table.reserve_members(limit + 1);  // no fixed-step regrowth on the way
  std::uint64_t next = 1;
  // Fill slots in order, so each insert lands near the end of the array.
  for (unsigned l = 0; l < spec.num_digits; ++l)
    for (unsigned j = 1; j < spec.radix(); ++j)
      for (int k = 0; k < 110 && table.member_count() < limit; ++k)
        table.consider(l, j, NodeId(spec, next++), static_cast<double>(k));
  ASSERT_EQ(table.member_count(), limit);
  EXPECT_THROW(table.consider(spec.num_digits - 1, 1, NodeId(spec, next), 0.0),
               CheckError);
  EXPECT_EQ(table.member_count(), limit);
}

/// Holders at one level, copied out of the table's view.
std::vector<NodeId> backpointers_at(const RoutingTable& table,
                                    unsigned level) {
  const RoutingTable::Backpointers v = table.backpointers(level);
  return {v.begin(), v.end()};
}

TEST(RoutingTable, BackpointerBookkeeping) {
  const NodeId self = nid(0x1000);
  RoutingTable table(kSpec, self, 2);
  table.add_backpointer(1, nid(0x1234));
  table.add_backpointer(1, nid(0x1567));
  table.add_backpointer(2, nid(0x1234));
  EXPECT_EQ(table.backpointers(1).size(), 2u);
  EXPECT_EQ(table.all_backpointers().size(), 2u);  // unique nodes
  table.remove_backpointer(1, nid(0x1234));
  EXPECT_EQ(table.backpointers(1).size(), 1u);
  EXPECT_EQ(table.all_backpointers().size(), 2u);  // still at level 2

  // Ascending by id whatever the insertion order.
  table.add_backpointer(1, nid(0x1F00));
  table.add_backpointer(1, nid(0x1001));
  table.add_backpointer(1, nid(0x1800));
  const std::vector<NodeId> want{nid(0x1001), nid(0x1567), nid(0x1800),
                                 nid(0x1F00)};
  EXPECT_EQ(backpointers_at(table, 1), want);

  // A duplicate add is idempotent; removing an absent id is a no-op.
  table.add_backpointer(1, nid(0x1800));
  EXPECT_EQ(backpointers_at(table, 1), want);
  table.remove_backpointer(1, nid(0x1234));
  table.remove_backpointer(3, nid(0x1234));
  EXPECT_EQ(backpointers_at(table, 1), want);

  EXPECT_TRUE(table.has_backpointer(1, nid(0x1800)));
  EXPECT_FALSE(table.has_backpointer(1, nid(0x1234)));
  EXPECT_TRUE(table.has_backpointer(2, nid(0x1234)));
  EXPECT_FALSE(table.has_backpointer(3, nid(0x1234)));

  const std::vector<NodeId> all{nid(0x1001), nid(0x1234), nid(0x1567),
                                nid(0x1800), nid(0x1F00)};
  EXPECT_EQ(table.all_backpointers(), all);  // ascending, deduplicated
}

/// Drives `ops` random add_backpointer / remove_backpointer calls into one
/// table and into one std::set of id values per level; now and then a
/// static-builder batch instead: append_backpointer calls in any order,
/// repeats included, then settle_backpointers.  After every op it
/// compares each level's backpointers (contents and ascending order),
/// has_backpointer for every id in the level's pool, and all_backpointers.
void expect_backpointers_match_reference(IdSpec spec, std::uint64_t seed,
                                         int ops) {
  SCOPED_TRACE(::testing::Message()
               << "radix " << spec.radix() << " seed " << seed);
  Rng rng(seed);
  const unsigned levels = spec.num_digits;
  const NodeId self(spec, rng() & spec.mask());
  RoutingTable table(spec, self, 2);
  std::vector<std::set<std::uint64_t>> ref(levels);

  // A small pool of holders per level, each sharing the level's prefix
  // with the owner as a real holder does, so adds repeat and removals
  // mostly hit.
  constexpr std::size_t kPool = 8;
  std::vector<std::vector<NodeId>> pool(levels);
  for (unsigned l = 0; l < levels; ++l) {
    for (std::uint64_t k = 0; pool[l].size() < kPool; ++k) {
      NodeId id(spec, splitmix64(seed ^ (std::uint64_t{l} << 32 | k)) &
                          spec.mask());
      for (unsigned i = 0; i < l; ++i) id = id.with_digit(i, self.digit(i));
      if (!(id == self)) pool[l].push_back(id);
    }
  }
  auto any_holder = [&](unsigned l) {
    return pool[l][rng.next_u64(pool[l].size())];
  };

  auto expect_levels_match = [&](int op) {
    std::set<std::uint64_t> all;
    for (unsigned l = 0; l < levels; ++l) {
      std::vector<NodeId> want;
      for (const std::uint64_t v : ref[l]) want.emplace_back(spec, v);
      ASSERT_EQ(table.backpointers(l).size(), want.size())
          << "level " << l << " after op " << op;
      ASSERT_EQ(backpointers_at(table, l), want)
          << "level " << l << " after op " << op;
      for (const NodeId& id : pool[l])
        ASSERT_EQ(table.has_backpointer(l, id), ref[l].count(id.value()) != 0)
            << "level " << l << " id " << id.to_string() << " after op "
            << op;
      all.insert(ref[l].begin(), ref[l].end());
    }
    std::vector<NodeId> want_all;
    for (const std::uint64_t v : all) want_all.emplace_back(spec, v);
    ASSERT_EQ(table.all_backpointers(), want_all) << "after op " << op;
  };

  for (int op = 0; op < ops; ++op) {
    const auto l = static_cast<unsigned>(rng.next_u64(levels));
    const std::uint64_t kind = rng.next_u64(20);
    if (kind < 11) {
      const NodeId id = any_holder(l);
      table.add_backpointer(l, id);
      ref[l].insert(id.value());
    } else if (kind < 19) {
      const NodeId id = any_holder(l);
      table.remove_backpointer(l, id);
      ref[l].erase(id.value());
    } else {
      for (int k = 0; k < 6; ++k) {
        const auto bl = static_cast<unsigned>(rng.next_u64(levels));
        const NodeId id = any_holder(bl);
        table.append_backpointer(bl, id);
        ref[bl].insert(id.value());
      }
      table.settle_backpointers();
    }
    expect_levels_match(op);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(RoutingTable, BackpointersMatchPerLevelSetReference) {
  const IdSpec specs[] = {IdSpec{1, 12}, IdSpec{4, 4}, IdSpec{6, 3}};
  for (const IdSpec& spec : specs)
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      expect_backpointers_match_reference(spec, seed * 7919, 5'000);
      if (HasFatalFailure()) return;
    }
}

// ---------------------------------------------------- MemoryStore backend
// (Cross-backend conformance lives in test_object_store.cc; these pin the
// reference backend's semantics directly.)

Guid gid(std::uint64_t v) { return Guid(kSpec, v); }

TEST(ObjectStore, UpsertFindRemove) {
  MemoryStore store;
  store.upsert(gid(0xAAAA), PointerRecord{nid(1), std::nullopt, 0, false, 10});
  EXPECT_EQ(store.size(), 1u);
  ASSERT_TRUE(store.find(gid(0xAAAA), nid(1)).has_value());
  EXPECT_FALSE(store.find(gid(0xAAAA), nid(2)).has_value());
  EXPECT_TRUE(store.remove(gid(0xAAAA), nid(1)));
  EXPECT_FALSE(store.remove(gid(0xAAAA), nid(1)));
  EXPECT_TRUE(store.empty());
}

TEST(ObjectStore, MultipleReplicasPerGuid) {
  // Tapestry keeps a pointer per replica (§2.4), unlike PRR.
  MemoryStore store;
  store.upsert(gid(7), PointerRecord{nid(1), std::nullopt, 0, false, 10});
  store.upsert(gid(7), PointerRecord{nid(2), nid(1), 1, false, 10});
  EXPECT_EQ(store.find_all(gid(7)).size(), 2u);
  EXPECT_EQ(store.size(), 2u);
}

TEST(ObjectStore, UpsertReplacesSameServer) {
  MemoryStore store;
  store.upsert(gid(7), PointerRecord{nid(1), std::nullopt, 0, false, 10});
  store.upsert(gid(7), PointerRecord{nid(1), nid(9), 3, true, 20});
  EXPECT_EQ(store.size(), 1u);
  const auto rec = store.find(gid(7), nid(1));
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->level, 3u);
  EXPECT_EQ(rec->expires_at, 20);
  ASSERT_TRUE(rec->last_hop.has_value());
  EXPECT_EQ(*rec->last_hop, nid(9));
}

TEST(ObjectStore, VisitorMatchesFindAll) {
  MemoryStore store;
  store.upsert(gid(7), PointerRecord{nid(1), std::nullopt, 0, false, 10});
  store.upsert(gid(7), PointerRecord{nid(2), nid(1), 1, false, 10});
  store.upsert(gid(8), PointerRecord{nid(3), std::nullopt, 0, false, 10});
  std::vector<PointerRecord> seen;
  store.for_each_of(gid(7), [&](const Guid& g, const PointerRecord& r) {
    EXPECT_EQ(g, gid(7));
    seen.push_back(r);
  });
  const auto all = store.find_all(gid(7));
  ASSERT_EQ(seen.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i)
    EXPECT_EQ(seen[i].server, all[i].server);
  store.for_each_of(gid(9), [&](const Guid&, const PointerRecord&) {
    FAIL() << "no records for this guid";
  });
}

TEST(ObjectStore, StatsCounters) {
  MemoryStore store;
  store.upsert(gid(1), PointerRecord{nid(1), std::nullopt, 0, false, 5.0});
  store.upsert(gid(1), PointerRecord{nid(2), std::nullopt, 0, false, 1.0});
  store.remove(gid(1), nid(1));
  store.remove_expired(3.0);
  const StoreStats s = store.stats();
  EXPECT_STREQ(s.backend, "memory");
  EXPECT_EQ(s.records, 0u);
  EXPECT_EQ(s.stripes, 1u);
}

TEST(ObjectStore, SoftStateExpiry) {
  MemoryStore store;
  store.upsert(gid(1), PointerRecord{nid(1), std::nullopt, 0, false, 5.0});
  store.upsert(gid(1), PointerRecord{nid(2), std::nullopt, 0, false, 15.0});
  store.upsert(gid(2), PointerRecord{nid(3), std::nullopt, 0, false, 3.0});

  EXPECT_EQ(store.find_live(gid(1), 10.0).size(), 1u);  // one expired
  EXPECT_EQ(store.find_live(gid(1), 0.0).size(), 2u);

  EXPECT_EQ(store.remove_expired(10.0), 2u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.find_all(gid(2)).empty());
}

TEST(ObjectStore, SnapshotIsStable) {
  MemoryStore store;
  for (std::uint64_t i = 0; i < 10; ++i)
    store.upsert(gid(i), PointerRecord{nid(i), std::nullopt, 0, false, 1.0});
  auto snap = store.snapshot();
  EXPECT_EQ(snap.size(), 10u);
  // Mutating the store does not disturb the snapshot.
  store.remove(gid(3), nid(3));
  EXPECT_EQ(snap.size(), 10u);
}

TEST(ObjectStore, InvalidUpsertRejected) {
  MemoryStore store;
  EXPECT_THROW(store.upsert(Guid(), PointerRecord{nid(1), std::nullopt, 0,
                                                  false, 1.0}),
               CheckError);
}

}  // namespace
}  // namespace tap
