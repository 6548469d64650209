// Data-structure semantics: NeighborSet capacity/eviction/pinning,
// RoutingTable self-entries and backpointers, ObjectStore records and
// soft-state expiry.
#include <gtest/gtest.h>

#include "src/tapestry/neighbor_set.h"
#include "src/tapestry/object_store.h"
#include "src/tapestry/routing_table.h"

namespace tap {
namespace {

const IdSpec kSpec{4, 4};

NodeId nid(std::uint64_t v) { return NodeId(kSpec, v); }

// ------------------------------------------------------------ NeighborSet

TEST(NeighborSet, KeepsClosestUpToCapacity) {
  NeighborSet set(2);
  EXPECT_TRUE(set.consider(nid(1), 5.0).inserted);
  EXPECT_TRUE(set.consider(nid(2), 3.0).inserted);
  EXPECT_EQ(*set.primary(), nid(2));

  // Farther candidate bounces off a full set.
  const auto r = set.consider(nid(3), 9.0);
  EXPECT_FALSE(r.inserted);
  EXPECT_FALSE(r.evicted.has_value());
  EXPECT_EQ(set.size(), 2u);

  // Closer candidate evicts the farthest member.
  const auto r2 = set.consider(nid(4), 1.0);
  EXPECT_TRUE(r2.inserted);
  ASSERT_TRUE(r2.evicted.has_value());
  EXPECT_EQ(*r2.evicted, nid(1));
  EXPECT_EQ(*set.primary(), nid(4));
}

TEST(NeighborSet, EntriesSortedByDistanceThenId) {
  NeighborSet set(4);
  set.consider(nid(5), 2.0);
  set.consider(nid(3), 2.0);
  set.consider(nid(9), 1.0);
  const auto& e = set.entries();
  ASSERT_EQ(e.size(), 3u);
  EXPECT_EQ(e[0].id, nid(9));
  EXPECT_EQ(e[1].id, nid(3));  // distance tie broken by id
  EXPECT_EQ(e[2].id, nid(5));
}

TEST(NeighborSet, ReconsiderUpdatesDistance) {
  NeighborSet set(3);
  set.consider(nid(1), 5.0);
  set.consider(nid(2), 1.0);
  EXPECT_EQ(*set.primary(), nid(2));
  // Node 1 moved closer (relocation): same member, new rank.
  EXPECT_TRUE(set.consider(nid(1), 0.5).inserted);
  EXPECT_EQ(*set.primary(), nid(1));
  EXPECT_EQ(set.size(), 2u);
}

TEST(NeighborSet, RemoveAndContains) {
  NeighborSet set(2);
  set.consider(nid(1), 1.0);
  EXPECT_TRUE(set.contains(nid(1)));
  EXPECT_TRUE(set.remove(nid(1)));
  EXPECT_FALSE(set.remove(nid(1)));
  EXPECT_FALSE(set.contains(nid(1)));
  EXPECT_TRUE(set.empty());
}

TEST(NeighborSet, TieBreaksDeterministicallyById) {
  // Equal distances order by id, so the set contents converge to the same
  // answer regardless of insertion order (static-vs-grown equivalence).
  NeighborSet set(1);
  set.consider(nid(1), 2.0);
  const auto r = set.consider(nid(0), 2.0);  // same distance, smaller id
  EXPECT_TRUE(r.inserted);
  EXPECT_EQ(*r.evicted, nid(1));
  EXPECT_EQ(*set.primary(), nid(0));
  // The mirror case: a larger id at the same distance bounces off.
  const auto r2 = set.consider(nid(2), 2.0);
  EXPECT_FALSE(r2.inserted);
  EXPECT_EQ(*set.primary(), nid(0));
}

TEST(NeighborSet, PinnedMembersExceedCapacity) {
  NeighborSet set(1);
  set.consider(nid(1), 1.0);
  set.pin(nid(2), 9.0);  // pinned insert ignores capacity
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.pinned_members(), (std::vector<NodeId>{nid(2)}));
  EXPECT_EQ(set.unpinned_count(), 1u);

  // A closer unpinned candidate evicts the unpinned member, never the pin.
  const auto r = set.consider(nid(3), 0.5);
  EXPECT_TRUE(r.inserted);
  EXPECT_EQ(*r.evicted, nid(1));
  EXPECT_TRUE(set.contains(nid(2)));
}

TEST(NeighborSet, UnpinRestoresCapacityPressure) {
  NeighborSet set(1);
  set.consider(nid(1), 1.0);
  set.pin(nid(2), 9.0);
  std::vector<NodeId> evicted;
  set.unpin(nid(2), evicted);
  // Now over capacity: the farthest unpinned member (2) must go.
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], nid(2));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.contains(nid(1)));
}

TEST(NeighborSet, PinExistingMember) {
  NeighborSet set(2);
  set.consider(nid(1), 1.0);
  set.pin(nid(1), 1.0);
  EXPECT_EQ(set.pinned_members(), (std::vector<NodeId>{nid(1)}));
  EXPECT_EQ(set.size(), 1u);  // no duplicate
}

TEST(NeighborSet, FullSlotHoldsExactlyCapacity) {
  // Closer candidates keep arriving and evicting: the entry vector grows
  // one at a time to R and never past it.
  NeighborSet set(3);
  for (std::uint64_t i = 0; i < 10; ++i)
    set.consider(nid(i), 10.0 - static_cast<double>(i));
  EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(set.entries().capacity(), 3u);
  EXPECT_EQ(*set.primary(), nid(9));

  // Pinned members live outside the budget and still push past R.
  set.pin(nid(20), 50.0);
  set.pin(nid(21), 60.0);
  EXPECT_EQ(set.size(), 5u);
  EXPECT_GT(set.entries().capacity(), 3u);
  EXPECT_EQ(set.unpinned_count(), 3u);
}

TEST(NeighborSet, ZeroCapacityRejected) {
  NeighborSet set(0);
  EXPECT_THROW(set.consider(nid(1), 1.0), CheckError);
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
  EXPECT_EQ(table.backpointers(1), want);

  // A duplicate add is idempotent; removing an absent id is a no-op.
  table.add_backpointer(1, nid(0x1800));
  EXPECT_EQ(table.backpointers(1), want);
  table.remove_backpointer(1, nid(0x1234));
  table.remove_backpointer(3, nid(0x1234));
  EXPECT_EQ(table.backpointers(1), want);

  EXPECT_TRUE(table.has_backpointer(1, nid(0x1800)));
  EXPECT_FALSE(table.has_backpointer(1, nid(0x1234)));
  EXPECT_TRUE(table.has_backpointer(2, nid(0x1234)));
  EXPECT_FALSE(table.has_backpointer(3, nid(0x1234)));

  const std::vector<NodeId> all{nid(0x1001), nid(0x1234), nid(0x1567),
                                nid(0x1800), nid(0x1F00)};
  EXPECT_EQ(table.all_backpointers(), all);  // ascending, deduplicated
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
