// Node deletion (§5): voluntary departure preserves all invariants and
// availability; involuntary failure is repaired lazily; objects rooted at
// a failed node come back after soft-state republish.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "src/common/stats.h"
#include "src/tapestry/fingerprint.h"
#include "test_util.h"

namespace tap {
namespace {

using test::grow_ring_network;
using test::make_guid;
using test::property1_holds;
using test::small_params;
using test::static_ring_network;

/// Memory store and direct transport, set here rather than taken from
/// TAP_STORE / TAP_TRANSPORT: the repair cases below pin one setting each.
TapestryParams serial_params(IdSpec id, unsigned redundancy) {
  TapestryParams p;
  p.id = id;
  p.redundancy = redundancy;
  p.store_backend = StoreBackend::kMemory;
  p.transport = TransportKind::kDirect;
  return p;
}

TEST(VoluntaryLeave, InvariantsHoldAfterEachDeparture) {
  auto g = grow_ring_network(96, 80);
  Rng rng(1);
  // Remove a third of the network one node at a time.
  for (int i = 0; i < 32; ++i) {
    auto ids = g.net->node_ids();
    const NodeId victim = ids[rng.next_u64(ids.size())];
    g.net->leave(victim);
    g.net->check_property1();
  }
  g.net->check_backpointer_symmetry();
  EXPECT_EQ(g.net->size(), 64u);
}

TEST(VoluntaryLeave, ObjectsStayAvailableThroughDepartures) {
  auto g = grow_ring_network(128, 81);
  Rng rng(2);
  std::vector<Guid> guids;
  std::vector<NodeId> servers;
  for (int i = 0; i < 10; ++i) {
    const Guid guid = make_guid(*g.net, 500 + i);
    const NodeId server = g.ids[rng.next_u64(g.ids.size())];
    g.net->publish(server, guid);
    guids.push_back(guid);
    servers.push_back(server);
  }
  for (int round = 0; round < 40; ++round) {
    // Never remove a server (the replica itself would vanish with it — an
    // application-layer event, not an overlay failure).
    auto ids = g.net->node_ids();
    NodeId victim = ids[rng.next_u64(ids.size())];
    bool is_server = false;
    for (const NodeId& s : servers)
      if (s == victim) is_server = true;
    if (is_server) continue;
    g.net->leave(victim);
    for (std::size_t i = 0; i < guids.size(); ++i) {
      auto clients = g.net->node_ids();
      const NodeId client = clients[rng.next_u64(clients.size())];
      const LocateResult r = g.net->locate(client, guids[i]);
      ASSERT_TRUE(r.found) << "object lost after departure round " << round;
      EXPECT_EQ(r.server, servers[i]);
    }
  }
  g.net->check_property4();
}

TEST(VoluntaryLeave, ServerDepartureWithdrawsItsReplicas) {
  auto g = grow_ring_network(64, 82);
  const Guid guid = make_guid(*g.net, 9);
  g.net->publish(g.ids[10], guid);
  g.net->publish(g.ids[20], guid);
  g.net->leave(g.ids[10]);
  // The remaining replica serves every query.
  for (const NodeId& c : g.net->node_ids()) {
    const LocateResult r = g.net->locate(c, guid);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.server, g.ids[20]);
  }
  EXPECT_EQ(g.net->servers_of(guid).size(), 1u);
}

TEST(VoluntaryLeave, RootDepartureMigratesPointers) {
  auto g = grow_ring_network(96, 83);
  const Guid guid = make_guid(*g.net, 11);
  g.net->publish(g.ids[5], guid);
  const NodeId old_root = g.net->surrogate_root(guid);
  if (old_root == g.ids[5]) GTEST_SKIP() << "server happens to be root";
  g.net->leave(old_root);
  const NodeId new_root = g.net->surrogate_root(guid);
  EXPECT_FALSE(new_root == old_root);
  // The new root must already hold the pointer (availability was never
  // interrupted, §5.1).
  EXPECT_FALSE(g.net->node(new_root).store().find_all(guid).empty());
  for (const NodeId& c : g.net->node_ids())
    EXPECT_TRUE(g.net->locate(c, guid).found);
  g.net->check_property4();
}

TEST(VoluntaryLeave, DownToOneNode) {
  auto g = grow_ring_network(8, 84);
  while (g.net->size() > 1) {
    auto ids = g.net->node_ids();
    g.net->leave(ids.front());
    g.net->check_property1();
  }
  EXPECT_EQ(g.net->size(), 1u);
}

TEST(VoluntaryLeave, LeaveOfDeadNodeRejected) {
  auto g = grow_ring_network(16, 85);
  g.net->fail(g.ids[3]);
  EXPECT_THROW(g.net->leave(g.ids[3]), CheckError);
}

// ---------------------------------------------------------------- failure

TEST(InvoluntaryFail, LazyRepairRestoresRouting) {
  auto g = grow_ring_network(128, 86);
  Rng rng(3);
  // Kill 20% of the network without warning.
  for (int i = 0; i < 25; ++i) {
    auto ids = g.net->node_ids();
    g.net->fail(ids[rng.next_u64(ids.size())]);
  }
  // Routing still terminates and roots stay unique per GUID: exercise many
  // routes (each repairs tables as it trips over corpses).
  for (int obj = 0; obj < 30; ++obj) {
    const Guid guid = make_guid(*g.net, 700 + obj);
    auto ids = g.net->node_ids();
    std::set<std::uint64_t> roots;
    for (std::size_t i = 0; i < ids.size(); i += 5)
      roots.insert(g.net->route_to_root(ids[i], guid).root.value());
    EXPECT_EQ(roots.size(), 1u) << "roots diverge after failures";
  }
}

TEST(InvoluntaryFail, RepairConvergesToProperty1) {
  auto g = grow_ring_network(96, 87);
  Rng rng(4);
  for (int i = 0; i < 16; ++i) {
    auto ids = g.net->node_ids();
    g.net->fail(ids[rng.next_u64(ids.size())]);
  }
  // Drive repair by routing from everywhere to everywhere-ish.
  auto ids = g.net->node_ids();
  for (const NodeId& src : ids)
    for (int obj = 0; obj < 8; ++obj)
      (void)g.net->route_to_root(src, make_guid(*g.net, 800 + obj));
  // After the dust settles, no live table slot should still hold only
  // corpses while live candidates exist.
  g.net->check_property1();
}

TEST(InvoluntaryFail, ObjectsOnFailedPathsSurviveViaRepair) {
  auto g = grow_ring_network(128, 88);
  const Guid guid = make_guid(*g.net, 13);
  g.net->publish(g.ids[7], guid);
  const RouteResult path = g.net->route_to_root(g.ids[7], guid);
  // Fail an intermediate path node (not server, not root).
  if (path.path.size() < 3) GTEST_SKIP() << "publish path too short";
  const NodeId victim = path.path[1];
  g.net->fail(victim);
  // Queries still succeed: they repair around the corpse and, in the worst
  // case, meet the pointer at the root.
  for (const NodeId& c : g.net->node_ids())
    EXPECT_TRUE(g.net->locate(c, guid).found);
}

TEST(InvoluntaryFail, RootFailureRecoversAfterRepublish) {
  auto g = grow_ring_network(128, 89);
  const Guid guid = make_guid(*g.net, 14);
  g.net->publish(g.ids[9], guid);
  const NodeId root = g.net->surrogate_root(guid);
  if (root == g.ids[9]) GTEST_SKIP() << "server happens to be root";
  g.net->fail(root);

  // The paper accepts unavailability here until soft state refreshes
  // (§5.2): after republish, the object is found again by everyone.
  g.net->republish_all();
  for (const NodeId& c : g.net->node_ids())
    EXPECT_TRUE(g.net->locate(c, guid).found)
        << "object unavailable after republish";
  const NodeId new_root = g.net->surrogate_root(guid);
  EXPECT_FALSE(new_root == root);
}

TEST(InvoluntaryFail, DeadServerPointersPrunedLazily) {
  auto g = grow_ring_network(96, 90);
  const Guid guid = make_guid(*g.net, 15);
  g.net->publish(g.ids[11], guid);
  g.net->publish(g.ids[22], guid);
  g.net->fail(g.ids[11]);
  // Queries must skip the dead replica and settle on the live one.
  for (const NodeId& c : g.net->node_ids()) {
    const LocateResult r = g.net->locate(c, guid);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.server, g.ids[22]);
  }
}

TEST(InvoluntaryFail, FailedTwiceRejected) {
  auto g = grow_ring_network(16, 91);
  g.net->fail(g.ids[3]);
  EXPECT_THROW(g.net->fail(g.ids[3]), CheckError);
}

TEST(SerialRepair, TranscriptIsPinned) {
  // The serial §5 repair transcript, pinned: one grown overlay, 8 leaves,
  // 8 unannounced failures and a heartbeat sweep, every message booked on
  // one Trace.  Serial and threaded repair share one implementation; the
  // constants hold its serial mode to the exact serial choices (hints,
  // holder order, the replacement search's peers and index probes, the
  // sweep's probe dedup and fill filter).  A change that alters repair
  // traffic on purpose updates them and says so.  Memory store and direct
  // transport are set here, not taken from TAP_STORE / TAP_TRANSPORT, and
  // no object is published, so no hash-map iteration order enters the
  // pinned values.
  TapestryParams p;
  p.id = IdSpec{4, 8};
  p.redundancy = 3;
  p.store_backend = StoreBackend::kMemory;
  p.transport = TransportKind::kDirect;
  auto g = grow_ring_network(96, 93, p);
  Trace trace;
  for (std::size_t i = 0; i < 8; ++i) g.net->leave(g.ids[3 + 12 * i], &trace);
  for (std::size_t i = 0; i < 8; ++i) g.net->fail(g.ids[9 + 12 * i]);
  g.net->heartbeat_sweep(&trace);

  g.net->check_property1();
  g.net->check_backpointer_symmetry();
  EXPECT_EQ(g.net->size(), 80u);
  EXPECT_EQ(fingerprint_tables(*g.net), 9780718294167188899ull);
  EXPECT_EQ(trace.messages(), 4179u);
}

TEST(SerialRepair, Radix2LeavesKeepProperty1) {
  // Radix 2 at the default R = 3, from the static tables: leaving every
  // other node must keep Property 1 after each departure.  A holder whose
  // slot the leaver vacated, with no hint and no peer that knows a
  // replacement, must still find one if any live node fits; a search
  // that misses such a node opens a hole here after ids[40] leaves.
  auto g = static_ring_network(96, 2, serial_params(IdSpec{1, 12}, 3));
  for (std::size_t i = 0; i < g.ids.size(); i += 2) {
    g.net->leave(g.ids[i]);
    ASSERT_TRUE(property1_holds(*g.net)) << "after leaving ids[" << i << "]";
  }
  g.net->check_backpointer_symmetry();
}

TEST(SerialRepair, LeavesKeepProperty1AtEveryRadixAndRedundancy) {
  // Serial leaves from static tables at radix 2, 4, 16 and 64 and R = 1,
  // 2 and 3, half the overlay leaving in random order, Property 1 checked
  // after every leave.  Every setting runs because the default, radix 16
  // with R = 3, hides a replacement search that misses live candidates:
  // there its peers nearly always know one.
  for (const IdSpec id :
       {IdSpec{1, 12}, IdSpec{2, 6}, IdSpec{4, 3}, IdSpec{6, 2}}) {
    for (const unsigned r : {1u, 2u, 3u}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE("radix " + std::to_string(id.radix()) + " R=" +
                     std::to_string(r) + " seed " + std::to_string(seed));
        auto g = static_ring_network(96, seed, serial_params(id, r));
        Rng rng(seed + 100);
        for (int i = 0; i < 48; ++i) {
          const auto ids = g.net->node_ids();
          const NodeId victim = ids[rng.next_u64(ids.size())];
          g.net->leave(victim);
          if (!property1_holds(*g.net)) {
            ADD_FAILURE() << "Property 1 broke after leaving "
                          << victim.to_string();
            break;
          }
        }
        g.net->check_backpointer_symmetry();
      }
    }
  }
}

TEST(SerialRepair, SweepFillsTheHolesJoinsLeave) {
  // Joins at R = 1 leave no hole: the §4.1 multicast reaches every node
  // that shares the new node's prefix, those behind an own-digit slot that
  // lists only its owner included.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    auto g = grow_ring_network(64, seed, serial_params(IdSpec{4, 3}, 1));
    EXPECT_TRUE(property1_holds(*g.net)) << "growth seed " << seed;
  }

  // Nor does a join made during a partition: its watch list fills the
  // rows past α from nodes across the cut
  // (SerialJoin.PartitionedJoinsKeepProperty1).  A hole no repair opened,
  // here a slot whose only member was unlinked by hand, is one serial
  // heartbeat sweep's to fill: its fill pass searches every empty slot
  // some live id fits.
  for (const auto& [id, r] :
       {std::pair{IdSpec{4, 3}, 3u}, std::pair{IdSpec{1, 12}, 1u}}) {
    SCOPED_TRACE("radix " + std::to_string(id.radix()));
    auto g = static_ring_network(64, 5, serial_params(id, r));
    const test::Hole h = test::unlink_sole_member(*g.net);
    ASSERT_FALSE(property1_holds(*g.net));
    g.net->heartbeat_sweep();
    EXPECT_TRUE(g.net->node(h.owner).table().at(h.level, h.digit).contains(
        h.member));
    EXPECT_TRUE(property1_holds(*g.net));
    g.net->check_backpointer_symmetry();
  }
}

TEST(SerialRepair, RepairSendsNoMulticast) {
  // Leaves, lazy purges on routing walks and a sweep search replacements
  // through peers and the registry's live-id index, never by multicast: a
  // multicast from a node with an empty slot reaches that slot's digit
  // subtree only through the slot itself.
  auto g = grow_ring_network(96, 93, serial_params(IdSpec{4, 8}, 3));
  const TransportStats& stats = g.net->transport().stats();
  const std::uint64_t forwards0 =
      stats.kind_count(MessageKind::kMulticastForward);
  for (std::size_t i = 0; i < 8; ++i) g.net->leave(g.ids[3 + 12 * i]);
  for (std::size_t i = 0; i < 8; ++i) g.net->fail(g.ids[9 + 12 * i]);
  // A routing step that finds a corpse probes it, then purges it.
  const std::uint64_t probes0 = stats.kind_count(MessageKind::kHeartbeatProbe);
  const auto live = g.net->node_ids();
  for (int obj = 0; obj < 8; ++obj) {
    const Guid guid = make_guid(*g.net, 600 + obj);
    for (std::size_t i = 0; i < live.size(); i += 7)
      (void)g.net->route_to_root(live[i], guid);
  }
  EXPECT_GT(stats.kind_count(MessageKind::kHeartbeatProbe), probes0)
      << "no walk purged a corpse";
  g.net->heartbeat_sweep();
  g.net->check_property1();
  EXPECT_EQ(stats.kind_count(MessageKind::kMulticastForward), forwards0);
}

TEST(Tombstones, ALeaverFreesItsTableAsItGoes) {
  // A departure cuts every live link to the leaver — its holders unlink
  // it, REMOVELINK retracts its own links — so its table goes at once;
  // its store stays.  The mesh keeps Property 1 and symmetric
  // backpointers, and the next sweep has no corpse left to probe.
  auto g = static_ring_network(128, 431, serial_params(IdSpec{4, 8}, 3));
  for (std::size_t i = 2; i < g.ids.size(); i += 9) {
    const NodeId v = g.ids[i];
    g.net->leave(v);
    EXPECT_EQ(g.net->node(v).table().member_count(), 0u) << v.to_string();
  }
  g.net->check_property1();
  g.net->check_backpointer_symmetry();
  test::expect_tombstones_follow_links(*g.net);
  const TransportStats& ts = g.net->transport().stats();
  const std::uint64_t probes0 = ts.kind_count(MessageKind::kHeartbeatProbe);
  g.net->heartbeat_sweep();
  EXPECT_EQ(ts.kind_count(MessageKind::kHeartbeatProbe), probes0);
  test::expect_tombstones_follow_links(*g.net);
}

TEST(Tombstones, AFailedNodeKeepsItsTableUntilTheSweepCutsItsLinks) {
  // A fail-stop cuts nothing: the corpse's holders still list it and its
  // members still keep backpointers to it, so its table stays for lazy
  // repair to discover.  One serial sweep cuts both — each member's push
  // drops its backpointers, each holder's probe purges it — and the last
  // cut frees the table.
  auto g = static_ring_network(128, 432, serial_params(IdSpec{4, 8}, 3));
  const NodeId x = g.ids[5];
  const std::size_t links = g.net->node(x).table().total_entries();
  g.net->fail(x);
  EXPECT_EQ(g.net->node(x).table().total_entries(), links);
  test::expect_tombstones_follow_links(*g.net);
  g.net->heartbeat_sweep();
  EXPECT_EQ(g.net->node(x).table().member_count(), 0u);
  g.net->check_property1();
  g.net->check_backpointer_symmetry();
  test::expect_tombstones_follow_links(*g.net);
}

TEST(Tombstones, ACorpseGoesWithItsLastLiveLink) {
  // A corpse keeps its table while any live node links with it, and the
  // death of the last one frees it.  After a fail wave only the victim's
  // live members link with it, through their backpointers (a purging
  // holder drops its own).  After a plain fail() its holders still list
  // it too; the members die first here, so the last death is a holder's.
  for (const bool wave : {true, false}) {
    SCOPED_TRACE(wave ? "after a fail wave" : "after a plain fail");
    auto g = static_ring_network(128, 434, serial_params(IdSpec{4, 8}, 3));
    const NodeId c = g.ids[5];
    if (wave)
      g.net->fail_and_repair_bulk({c}, 1);
    else
      g.net->fail(c);
    std::vector<NodeId> members, holders;
    for (const NodeId& id : g.net->node_ids()) {
      const RoutingTable& t = g.net->node(id).table();
      const auto bps = t.all_backpointers();
      const auto listed = t.all_neighbors();
      if (std::find(bps.begin(), bps.end(), c) != bps.end())
        members.push_back(id);
      else if (std::find(listed.begin(), listed.end(), c) != listed.end())
        holders.push_back(id);
    }
    EXPECT_EQ(holders.empty(), wave);
    std::vector<NodeId> linkers = members;
    linkers.insert(linkers.end(), holders.begin(), holders.end());
    ASSERT_GT(linkers.size(), 1u);
    for (std::size_t i = 0; i < linkers.size(); ++i) {
      EXPECT_GT(g.net->node(c).table().member_count(), 0u) << "death " << i;
      if (i % 2 == 0)
        g.net->leave(linkers[i]);
      else
        g.net->fail(linkers[i]);
    }
    EXPECT_EQ(g.net->node(c).table().member_count(), 0u);
    test::expect_tombstones_follow_links(*g.net);
  }
}

TEST(MixedChurn, JoinsAndLeavesInterleaved) {
  auto g = grow_ring_network(64, 92);
  Rng rng(5);
  std::size_t next_loc = 64;
  for (int round = 0; round < 60; ++round) {
    if (rng.bernoulli(0.5) && g.net->size() > 8) {
      auto ids = g.net->node_ids();
      g.net->leave(ids[rng.next_u64(ids.size())]);
    } else if (next_loc < 128) {
      g.net->join(next_loc++);
    }
  }
  g.net->check_property1();
  g.net->check_backpointer_symmetry();
  // Roots still unique.
  for (int obj = 0; obj < 10; ++obj) {
    const Guid guid = make_guid(*g.net, 900 + obj);
    std::set<std::uint64_t> roots;
    for (const NodeId& src : g.net->node_ids())
      roots.insert(g.net->route_to_root(src, guid).root.value());
    EXPECT_EQ(roots.size(), 1u);
  }
}

}  // namespace
}  // namespace tap
