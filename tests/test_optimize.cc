// Object-pointer redistribution (§4.2, Figure 9), soft state (§6.5) and
// the continual-optimization heuristics (§6.4).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/common/stats.h"
#include "test_util.h"

namespace tap {
namespace {

using test::grow_ring_network;
using test::make_guid;
using test::small_params;

TEST(PointerMaintenance, RepublishRefreshesExpiry) {
  TapestryParams p = small_params();
  p.pointer_ttl = 10.0;
  auto g = grow_ring_network(64, 100, p);
  const Guid guid = make_guid(*g.net, 1);
  g.net->publish(g.ids[3], guid);

  g.net->events().run_until(8.0);
  g.net->republish_all();
  g.net->events().run_until(15.0);  // past the original deadline
  g.net->expire_pointers();
  // Refreshed pointers (deadline 8+10=18) must still be there.
  EXPECT_TRUE(g.net->locate(g.ids[10], guid).found);

  g.net->events().run_until(30.0);  // past every deadline
  g.net->expire_pointers();
  EXPECT_FALSE(g.net->locate(g.ids[10], guid).found);
  EXPECT_EQ(g.net->total_object_pointers(), 0u);
}

TEST(PointerMaintenance, ExpiredPointersInvisibleBeforePurge) {
  TapestryParams p = small_params();
  p.pointer_ttl = 5.0;
  auto g = grow_ring_network(64, 101, p);
  const Guid guid = make_guid(*g.net, 2);
  g.net->publish(g.ids[3], guid);
  g.net->events().run_until(6.0);
  // Records still sit in the stores, but find_live filters them.
  EXPECT_FALSE(g.net->locate(g.ids[10], guid).found);
}

TEST(PointerMaintenance, NoDanglingPointersAfterManyJoins) {
  // Every stored pointer record must be justified: walking the pointer's
  // next hops from its holder must reach a node holding the same record or
  // the record's server, never a dead end caused by a stale last_hop.
  auto g = grow_ring_network(64, 102);
  Rng rng(1);
  std::vector<Guid> guids;
  for (int i = 0; i < 16; ++i) {
    const Guid guid = make_guid(*g.net, 100 + i);
    g.net->publish(g.ids[rng.next_u64(g.ids.size())], guid);
    guids.push_back(guid);
  }
  for (std::size_t i = 64; i < 112; ++i) g.net->join(i);
  g.net->check_property4();

  // Additionally: the root of every guid holds exactly the replicas that
  // were published (no duplicates, no losses).
  for (const Guid& guid : guids) {
    const NodeId root = g.net->surrogate_root(guid);
    const auto recs = g.net->node(root).store().find_all(guid);
    EXPECT_EQ(recs.size(), g.net->servers_of(guid).size());
  }
}

TEST(Relocation, StaleTablesUntilOptimized) {
  auto g = grow_ring_network(96, 103);
  // Move a third of the nodes to fresh locations (spares exist beyond n).
  Rng rng(2);
  auto ids = g.net->node_ids();
  for (int i = 0; i < 32; ++i)
    g.net->relocate(ids[rng.next_u64(ids.size())], 96 + i);
  const double drifted = g.net->property2_quality();
  EXPECT_LT(drifted, 0.995) << "drift should degrade locality";

  // Heuristic 2 (full rebuild) restores near-perfect locality.
  for (const NodeId& id : g.net->node_ids()) g.net->rebuild_neighbor_table(id);
  const double rebuilt = g.net->property2_quality();
  EXPECT_GT(rebuilt, drifted);
  EXPECT_GT(rebuilt, 0.95);
  g.net->check_property1();
  g.net->check_backpointer_symmetry();
}

TEST(Relocation, GossipImprovesQuality) {
  auto g = grow_ring_network(96, 104);
  Rng rng(3);
  auto ids = g.net->node_ids();
  for (int i = 0; i < 32; ++i)
    g.net->relocate(ids[rng.next_u64(ids.size())], 96 + i);
  const double drifted = g.net->property2_quality();
  for (int round = 0; round < 2; ++round)
    for (const NodeId& id : g.net->node_ids()) g.net->optimize_gossip(id);
  EXPECT_GE(g.net->property2_quality(), drifted);
  g.net->check_property1();
}

TEST(Relocation, PrimarySwapReranksExistingMembers) {
  auto g = grow_ring_network(64, 105);
  Rng rng(4);
  auto ids = g.net->node_ids();
  for (int i = 0; i < 16; ++i)
    g.net->relocate(ids[rng.next_u64(ids.size())], 64 + i);
  // Re-ranking never invents new members, so Property 1 must survive and
  // every stored distance must be fresh afterwards.
  for (const NodeId& id : g.net->node_ids()) g.net->optimize_primaries(id);
  g.net->check_property1();
  for (const NodeId& id : g.net->node_ids()) {
    const auto& table = g.net->node(id).table();
    for (unsigned l = 0; l < g.net->params().id.num_digits; ++l) {
      for (unsigned j = 0; j < 16; ++j) {
        for (const auto& e : table.at(l, j).entries()) {
          if (e.id == id) continue;
          EXPECT_NEAR(e.dist, g.net->distance(id, e.id), 1e-12);
        }
      }
    }
  }
}

TEST(Relocation, OptimizePurgesTheCorpsesItMeets) {
  // A member that cannot be re-measured is a corpse.  Re-ranking must
  // purge it as lazy repair does, refilling the slot it empties: at R = 1
  // that slot holds no one else, so dropping the corpse alone opens a
  // hole some live node fits.
  for (const std::uint64_t seed : {108u, 109u, 110u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TapestryParams p = small_params();
    p.id = IdSpec{4, 3};
    p.redundancy = 1;
    auto g = test::static_ring_network(96, seed, p);
    Rng rng(seed);
    for (int i = 0; i < 8; ++i) {
      const auto ids = g.net->node_ids();
      g.net->fail(ids[rng.next_u64(ids.size())]);
    }
    for (const NodeId& id : g.net->node_ids()) g.net->optimize_primaries(id);
    for (const NodeId& id : g.net->node_ids())
      for (const NodeId& m : g.net->node(id).table().all_neighbors())
        EXPECT_TRUE(g.net->contains(m)) << "a table still lists a corpse";
    EXPECT_NO_THROW(g.net->check_property1());
    g.net->check_backpointer_symmetry();
  }
}

TEST(Relocation, ObjectsRemainAvailableAfterDriftAndRepair) {
  auto g = grow_ring_network(96, 106);
  const Guid guid = make_guid(*g.net, 3);
  g.net->publish(g.ids[5], guid);
  Rng rng(5);
  auto ids = g.net->node_ids();
  for (int i = 0; i < 24; ++i)
    g.net->relocate(ids[rng.next_u64(ids.size())], 96 + i);
  for (const NodeId& id : g.net->node_ids()) g.net->rebuild_neighbor_table(id);
  g.net->republish_all();
  for (const NodeId& c : g.net->node_ids())
    EXPECT_TRUE(g.net->locate(c, guid).found);
  g.net->check_property4();
}

TEST(PointerMaintenance, UnpublishThenExpireLeavesNoGarbage) {
  TapestryParams p = small_params();
  p.pointer_ttl = 20.0;
  auto g = grow_ring_network(64, 107, p);
  Rng rng(6);
  for (int i = 0; i < 10; ++i) {
    const Guid guid = make_guid(*g.net, 300 + i);
    const NodeId server = g.ids[rng.next_u64(g.ids.size())];
    g.net->publish(server, guid);
    g.net->unpublish(server, guid);
  }
  // Unpublish removed the records along the current paths; anything left
  // behind by path drift dies with the TTL.
  g.net->events().run_until(25.0);
  g.net->expire_pointers();
  EXPECT_EQ(g.net->total_object_pointers(), 0u);
}

}  // namespace
}  // namespace tap
