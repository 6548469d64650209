// Thread-parallel leave / fail-stop repair (§5.1, §5.2 on real threads):
// repair waves (MaintenanceEngine::leave_bulk and friends) across
// sim/thread_pool workers must converge — for the same seed at ANY worker
// count — to the same surviving membership and the same Property 1
// occupancy pattern, with backpointer symmetry and no leftover pins at
// quiescence, and with §4.2 rerouting completed before the call returns
// (serially, around the worker threads): objects are locatable at once,
// no republish backstop.  The serial calls and the waves run one protocol
// implementation; the *AgreesWithSerial twins check both modes land on
// the same invariants.  The waves take the store backend from TAP_STORE.
// The whole binary runs under TSan in CI: the memory-store waves, and the
// soak with the locate cache on, are where a store or cache write from a
// worker thread would show as a race.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/churn_driver.h"
#include "src/sim/metrics.h"
#include "src/tapestry/fingerprint.h"
#include "src/tapestry/network.h"
#include "test_util.h"

namespace tap {
namespace {

using test::expect_no_pins;
using test::make_guid;
using test::small_params;
using test::static_ring_network;

/// Every `stride`-th live node, skipping index 0 (a gateway/server pool
/// survivor).  Registration order is deterministic, so for a fixed seed
/// the victim set is too.
std::vector<NodeId> pick_victims(const std::vector<NodeId>& ids,
                                 std::size_t count, std::size_t stride) {
  std::vector<NodeId> v;
  for (std::size_t i = 1; v.size() < count && i < ids.size(); i += stride)
    v.push_back(ids[i]);
  return v;
}

/// Servers for the pre-wave workload: live nodes NOT in the victim set.
std::vector<NodeId> pick_survivor_servers(const std::vector<NodeId>& ids,
                                          const std::vector<NodeId>& victims,
                                          std::size_t count) {
  std::set<std::uint64_t> doomed;
  for (const NodeId& v : victims) doomed.insert(v.value());
  std::vector<NodeId> servers;
  for (const NodeId& id : ids) {
    if (servers.size() == count) break;
    if (doomed.count(id.value()) == 0) servers.push_back(id);
  }
  return servers;
}

std::uint64_t membership_fingerprint(const Network& net) {
  detail::Fnv1a fp;
  std::vector<std::uint64_t> sorted;
  for (const NodeId& id : net.node_ids()) sorted.push_back(id.value());
  std::sort(sorted.begin(), sorted.end());
  for (const std::uint64_t v : sorted) fp.mix(v);
  return fp.value();
}

/// fingerprint_tables without the backpointers: every live node's slot
/// members, in stored order.
std::uint64_t forward_fingerprint(const Network& net) {
  detail::Fnv1a fp;
  for (const auto& n : net.registry().nodes()) {
    if (!n->alive) continue;
    fp.mix(n->id().value());
    const RoutingTable& t = n->table();
    for (unsigned l = 0; l < t.levels(); ++l)
      for (unsigned j = 0; j < t.radix(); ++j)
        for (const auto& e : t.at(l, j).entries()) fp.mix(e.id.value());
  }
  return fp.value();
}

/// True if `n`'s table lists `x` in any slot x could occupy.
bool lists(const TapestryNode& n, const NodeId& x) {
  for (unsigned l = 0; l <= n.id().common_prefix_len(x); ++l)
    if (n.table().at(l, x.digit(l)).contains(x)) return true;
  return false;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted_published(
    const Network& net) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const auto& [guid, server] : net.published())
    out.emplace_back(guid.value(), server.value());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ThreadedRepair, LeaveWaveConvergesForEveryWorkerCount) {
  // Same seed, workers 1/2/4/8: identical surviving membership (victims
  // are validated and marked serially), Property 1, symmetric
  // backpointers, no pins — and identical occupancy fingerprints, because
  // the threaded replacement search is complete: at quiescence a slot is
  // occupied iff a live candidate exists, a function of membership alone.
  std::vector<std::uint64_t> member_fp;
  std::vector<std::uint64_t> occupancy_fp;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    auto g = static_ring_network(128, 410, small_params());
    const auto ids = g.net->node_ids();
    const auto victims = pick_victims(ids, 24, 5);
    g.net->leave_bulk(victims, workers);
    EXPECT_EQ(g.net->size(), 128u - 24u) << "workers=" << workers;
    for (const NodeId& v : victims) EXPECT_FALSE(g.net->contains(v));

    g.net->check_property1();
    g.net->check_backpointer_symmetry();
    expect_no_pins(*g.net);
    member_fp.push_back(membership_fingerprint(*g.net));
    occupancy_fp.push_back(fingerprint_occupancy(*g.net));
  }
  for (std::size_t i = 1; i < member_fp.size(); ++i) {
    EXPECT_EQ(member_fp[0], member_fp[i])
        << "surviving membership must not depend on the worker count";
    EXPECT_EQ(occupancy_fp[0], occupancy_fp[i])
        << "occupancy pattern must not depend on the worker count";
  }
}

TEST(ThreadedRepair, FailWaveConvergesAndReroutesInsideTheWave) {
  // Workers 1/2/4/8 again, with a workload on the mesh: every object must
  // be locatable the moment fail_and_repair_bulk returns — no
  // republish_all — even though some victims rooted or relayed the
  // publish paths (the wave's §4.2 re-route of the victims' holders).
  std::vector<std::uint64_t> member_fp;
  std::vector<std::uint64_t> occupancy_fp;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    auto g = static_ring_network(128, 411, small_params());
    const auto ids = g.net->node_ids();
    const auto victims = pick_victims(ids, 20, 6);
    const auto servers = pick_survivor_servers(ids, victims, 12);
    std::vector<Guid> guids;
    for (std::size_t i = 0; i < servers.size(); ++i) {
      const Guid guid = make_guid(*g.net, 8100 + i);
      guids.push_back(guid);
      g.net->publish(servers[i], guid);
    }

    g.net->fail_and_repair_bulk(victims, workers);
    EXPECT_EQ(g.net->size(), 128u - 20u) << "workers=" << workers;

    g.net->check_property1();
    g.net->check_backpointer_symmetry();
    expect_no_pins(*g.net);
    member_fp.push_back(membership_fingerprint(*g.net));
    occupancy_fp.push_back(fingerprint_occupancy(*g.net));

    const auto survivors = g.net->node_ids();
    Rng ql(77);
    for (const Guid& guid : guids)
      EXPECT_TRUE(
          g.net->locate(survivors[ql.next_u64(survivors.size())], guid).found)
          << "object lost in the wave (workers=" << workers << ")";
  }
  for (std::size_t i = 1; i < member_fp.size(); ++i) {
    EXPECT_EQ(member_fp[0], member_fp[i]);
    EXPECT_EQ(occupancy_fp[0], occupancy_fp[i]);
  }
}

/// One overlay setting of the serial-vs-wave twins below.
struct TwinCase {
  IdSpec id;
  unsigned redundancy;
  std::uint64_t seed;
};

std::string twin_name(const TwinCase& c) {
  return "radix " + std::to_string(c.id.radix()) + " digits " +
         std::to_string(c.id.num_digits) + " R=" +
         std::to_string(c.redundancy) + " seed " + std::to_string(c.seed);
}

TapestryParams twin_params(const TwinCase& c) {
  TapestryParams p = small_params();
  p.id = c.id;
  p.redundancy = c.redundancy;
  return p;
}

void expect_leave_wave_agrees(const TwinCase& c) {
  auto serial = static_ring_network(96, c.seed, twin_params(c));
  auto threaded = static_ring_network(96, c.seed, twin_params(c));
  const auto ids = serial.net->node_ids();
  const auto victims = pick_victims(ids, 16, 5);
  const auto servers = pick_survivor_servers(ids, victims, 10);
  std::vector<Guid> guids;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    const Guid guid = make_guid(*serial.net, 8200 + i);
    guids.push_back(guid);
    serial.net->publish(servers[i], guid);
    threaded.net->publish(servers[i], guid);
  }

  for (const NodeId& v : victims) {
    serial.net->leave(v);
    ASSERT_NO_THROW(serial.net->check_property1())
        << "serial leave of " << v.to_string();
  }
  threaded.net->leave_bulk(victims, /*workers=*/4);

  EXPECT_EQ(membership_fingerprint(*serial.net),
            membership_fingerprint(*threaded.net));
  EXPECT_EQ(sorted_published(*serial.net), sorted_published(*threaded.net));
  EXPECT_EQ(fingerprint_occupancy(*serial.net),
            fingerprint_occupancy(*threaded.net));
  for (const Network* net : {serial.net.get(), threaded.net.get()}) {
    net->check_property1();
    net->check_backpointer_symmetry();
    expect_no_pins(*net);
  }

  const auto survivors = threaded.net->node_ids();
  for (const Guid& guid : guids) {
    EXPECT_TRUE(serial.net->locate(survivors[1], guid).found);
    EXPECT_TRUE(threaded.net->locate(survivors[1], guid).found);
  }
}

void expect_fail_wave_agrees(const TwinCase& c) {
  auto serial = static_ring_network(96, c.seed, twin_params(c));
  auto threaded = static_ring_network(96, c.seed, twin_params(c));
  const auto ids = serial.net->node_ids();
  const auto victims = pick_victims(ids, 16, 5);
  const auto servers = pick_survivor_servers(ids, victims, 10);
  std::vector<Guid> guids;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    const Guid guid = make_guid(*serial.net, 8500 + i);
    guids.push_back(guid);
    serial.net->publish(servers[i], guid);
    threaded.net->publish(servers[i], guid);
  }

  for (const NodeId& v : victims) serial.net->fail(v);
  serial.net->heartbeat_sweep();
  threaded.net->fail_and_repair_bulk(victims, /*workers=*/4);

  EXPECT_EQ(membership_fingerprint(*serial.net),
            membership_fingerprint(*threaded.net));
  EXPECT_EQ(sorted_published(*serial.net), sorted_published(*threaded.net));
  EXPECT_EQ(fingerprint_occupancy(*serial.net),
            fingerprint_occupancy(*threaded.net));
  for (const Network* net : {serial.net.get(), threaded.net.get()}) {
    net->check_property1();
    net->check_backpointer_symmetry();
    expect_no_pins(*net);
  }

  const auto survivors = threaded.net->node_ids();
  Rng ql(66);
  for (const Guid& guid : guids)
    EXPECT_TRUE(threaded.net
                    ->locate(survivors[ql.next_u64(survivors.size())], guid)
                    .found)
        << "the fail wave must keep every object locatable";
}

TEST(ThreadedRepair, ThreadedLeaveAgreesWithSerial) {
  // Same seed, same victims, same workload: the serial §5.1 loop and the
  // threaded wave must agree on the surviving membership, on the replica
  // registry (published() set) and on the occupancy pattern, both must
  // keep Property 1 (the serial side after every leave), and every object
  // must remain locatable on both meshes without a republish.  Radix 16
  // with 8 digits at R = 3 is the default setting; radix 2 and 3-digit
  // radix 16 with R = 2 are where a serial replacement search that misses
  // live candidates leaves holes the wave fills.
  for (const TwinCase& c : {TwinCase{IdSpec{4, 8}, 3, 412},
                            TwinCase{IdSpec{1, 12}, 2, 1},
                            TwinCase{IdSpec{4, 3}, 2, 90}}) {
    SCOPED_TRACE(twin_name(c));
    expect_leave_wave_agrees(c);
  }
}

TEST(ThreadedRepair, ThreadedFailAgreesWithSerial) {
  // The §5.2 twin: serial fail() of every victim followed by one serial
  // heartbeat_sweep, against fail_and_repair_bulk on 4 threads.  Both
  // must reach the same membership, replica registry and occupancy
  // pattern with Property 1 and symmetric backpointers; the wave must
  // also leave every object locatable without a republish (the serial
  // side may not: a dead root waits for the §6.5 republish).  Same
  // settings as the leave twin.
  for (const TwinCase& c : {TwinCase{IdSpec{4, 8}, 3, 416},
                            TwinCase{IdSpec{1, 12}, 2, 1},
                            TwinCase{IdSpec{4, 3}, 2, 90}}) {
    SCOPED_TRACE(twin_name(c));
    expect_fail_wave_agrees(c);
  }
}

TEST(ThreadedRepair, LeaveKeepsObjectsLocatableOnGrownCore) {
  // Organic tables (dynamic-join core), victims chosen so some of them
  // root the published objects: the wave's §4.2 re-route must hand the
  // pointers to the new surrogate roots before leave_bulk returns.
  auto g = test::grow_ring_network(64, 414, small_params());
  const auto ids = g.net->node_ids();
  const auto victims = pick_victims(ids, 12, 4);
  const auto servers = pick_survivor_servers(ids, victims, 8);
  std::vector<Guid> guids;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    const Guid guid = make_guid(*g.net, 8400 + i);
    guids.push_back(guid);
    g.net->publish(servers[i], guid);
  }

  g.net->leave_bulk(victims, /*workers=*/4);

  g.net->check_property1();
  g.net->check_backpointer_symmetry();
  const auto survivors = g.net->node_ids();
  Rng ql(55);
  for (const Guid& guid : guids)
    EXPECT_TRUE(
        g.net->locate(survivors[ql.next_u64(survivors.size())], guid).found)
        << "no republish happened; the wave itself must keep Property 4 "
           "locatability";
}

TEST(ThreadedRepair, EveryWaveKeepsProperty4OnTheMemoryStore) {
  // Worker threads change routing tables only, and each wave re-routes
  // the object pointers serially around them, so every wave runs over the
  // unlocked memory store on any worker count (0 = hardware concurrency
  // counts as more than one) and keeps Property 4 with no republish.
  // Under TSan this is the witness that no worker thread writes a store.
  // One published ring takes a join, a leave and a fail wave, then plain
  // fail()s healed by a serial heartbeat sweep, in turn; after each: no
  // throw, Property 1, symmetric backpointers, Property 4, and every
  // object found.
  TapestryParams p = small_params();
  p.store_backend = StoreBackend::kMemory;
  for (const std::size_t workers : {0u, 4u}) {
    auto g = static_ring_network(96, 431, p);
    const auto ids = g.net->node_ids();
    // Disjoint doomed sets: leavers, fail victims, and the corpses of
    // plain fail() calls that only the sweep repairs.
    std::vector<NodeId> leavers, failers, corpses;
    for (std::size_t i = 1; i + 2 < ids.size(); i += 9) {
      leavers.push_back(ids[i]);
      failers.push_back(ids[i + 1]);
      corpses.push_back(ids[i + 2]);
    }
    std::vector<NodeId> doomed = leavers;
    doomed.insert(doomed.end(), failers.begin(), failers.end());
    doomed.insert(doomed.end(), corpses.begin(), corpses.end());
    const auto servers = pick_survivor_servers(ids, doomed, 16);
    std::vector<Guid> guids;
    for (std::size_t i = 0; i < servers.size(); ++i) {
      guids.push_back(make_guid(*g.net, 8900 + i));
      g.net->publish(servers[i], guids.back());
    }
    auto run = [&](const std::string& wave) {
      if (wave == "join") {
        std::vector<JoinRequest> reqs(24);
        for (std::size_t i = 0; i < reqs.size(); ++i) reqs[i].loc = 96 + i;
        g.net->join_bulk(reqs, workers);
      }
      if (wave == "leave") g.net->leave_bulk(leavers, workers);
      if (wave == "fail") g.net->fail_and_repair_bulk(failers, workers);
      if (wave == "heartbeat") {
        for (const NodeId& v : corpses) g.net->fail(v);
        g.net->heartbeat_sweep();
      }
    };

    for (const std::string wave : {"join", "leave", "fail", "heartbeat"}) {
      SCOPED_TRACE(wave + " workers=" + std::to_string(workers));
      ASSERT_NO_THROW(run(wave));
      EXPECT_NO_THROW(g.net->check_property1());
      EXPECT_NO_THROW(g.net->check_backpointer_symmetry());
      EXPECT_NO_THROW(g.net->check_property4());
      const auto live = g.net->node_ids();
      Rng ql(89);
      for (const Guid& guid : guids)
        EXPECT_TRUE(g.net->locate(live[ql.next_u64(live.size())], guid).found)
            << guid.to_string();
    }
  }
}

TEST(ThreadedRepair, SoakConvergesOnTheMemoryStoreWithTheCacheOn) {
  // The threaded churn soak takes any store backend and the locate cache:
  // each wave runs alone, and its worker threads touch neither.  Three
  // rounds of 8 joins, 4 fails and 4 leaves on the unlocked memory store
  // with a 32-entry cache, at 1 and 4 workers: each run converges and
  // locates every tracked object with no republish, and both reach the
  // same membership and occupancy.  Under TSan this is the witness that
  // no wave thread writes a store or a cache.
  TapestryParams p = small_params();
  p.store_backend = StoreBackend::kMemory;
  p.locate_cache_size = 32;
  std::vector<ThreadedChurnReport> reports;
  for (const std::size_t workers : {1u, 4u}) {
    auto g = static_ring_network(96, 441, p);
    ThreadedChurnScenario sc;
    sc.rounds = 3;
    sc.joins_per_round = 8;
    sc.fails_per_round = 4;
    sc.leaves_per_round = 4;
    sc.objects = 24;
    sc.workers = workers;
    sc.seed = 441;
    reports.push_back(ThreadedChurnSoak(*g.net, sc).run());
    const ThreadedChurnReport& rep = reports.back();
    EXPECT_TRUE(rep.converged()) << "workers=" << workers;
    EXPECT_EQ(rep.found, rep.queries) << "workers=" << workers;
  }
  EXPECT_EQ(reports[0].membership_fp, reports[1].membership_fp);
  EXPECT_EQ(reports[0].occupancy_fp, reports[1].occupancy_fp);
}

TEST(ThreadedRepair, RepairWavesSendNoHeartbeats) {
  // A leave or fail wave reaches exactly its victims' holders and ends
  // with their §4.2 re-route: no heartbeat push, no probe,
  // no sweep counted, at any worker count.  Nor does it leave a sweep any
  // work: a serial heartbeat_sweep right after it finds no corpse listed
  // and changes no forward slot.  The sweep's pushes to the victims go
  // unheard, so it drops every live backpointer to them.
  for (const std::string wave : {"fail", "leave"}) {
    for (const std::size_t workers : {1u, 4u}) {
      SCOPED_TRACE(wave + " workers=" + std::to_string(workers));
      auto g = static_ring_network(128, 419, small_params());
      const auto victims = pick_victims(g.net->node_ids(), 20, 6);
      const TransportStats& ts = g.net->transport().stats();
      auto pushes = [&] { return ts.kind_count(MessageKind::kHeartbeatAck); };
      auto probes = [&] {
        return ts.kind_count(MessageKind::kHeartbeatProbe);
      };
      const std::uint64_t pushes0 = pushes();
      const std::uint64_t probes0 = probes();
      const std::uint64_t sweeps0 = metrics::heartbeat_sweeps_total().value();
      if (wave == "fail")
        g.net->fail_and_repair_bulk(victims, workers);
      else
        g.net->leave_bulk(victims, workers);
      EXPECT_EQ(pushes() - pushes0, 0u);
      EXPECT_EQ(probes() - probes0, 0u);
      EXPECT_EQ(metrics::heartbeat_sweeps_total().value(), sweeps0);
      g.net->check_property1();
      g.net->check_backpointer_symmetry();

      const std::uint64_t tables = forward_fingerprint(*g.net);
      g.net->heartbeat_sweep();
      EXPECT_EQ(probes() - probes0, 0u) << "the wave left a victim listed";
      EXPECT_EQ(forward_fingerprint(*g.net), tables)
          << "the wave left a slot for the sweep to fill";
      for (const NodeId& id : g.net->node_ids())
        for (const NodeId& h : g.net->node(id).table().all_backpointers())
          EXPECT_TRUE(std::find(victims.begin(), victims.end(), h) ==
                      victims.end())
              << id.to_string() << " keeps a backpointer to a victim";
      g.net->check_backpointer_symmetry();
    }
  }
}

TEST(ThreadedRepair, WaveLeavesUnannouncedCorpsesToTheSweep) {
  // A wave repairs only its victims.  A node that died by a plain fail()
  // stays in its live holders' tables through a fail wave of others; the
  // next sweep probes it once from each live node listing it, purges it,
  // and restores Property 1 and symmetry.
  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    auto g = static_ring_network(128, 420, small_params());
    const auto ids = g.net->node_ids();
    const auto victims = pick_victims(ids, 20, 6);  // ids 1, 7, 13, ...
    const NodeId x = ids[2];
    g.net->fail(x);
    g.net->fail_and_repair_bulk(victims, workers);

    const NodeRegistry& reg = g.net->registry();
    std::set<std::uint64_t> holders;
    for (const NodeId& h : reg.checked(x).table().all_backpointers())
      if (reg.is_live(h)) holders.insert(h.value());
    std::set<std::uint64_t> listers;
    for (const auto& n : reg.nodes())
      if (n->alive && lists(*n, x)) listers.insert(n->id().value());
    EXPECT_FALSE(listers.empty());
    EXPECT_EQ(listers, holders) << "x's live holders must still list x";

    const TransportStats& ts = g.net->transport().stats();
    const std::uint64_t probes0 = ts.kind_count(MessageKind::kHeartbeatProbe);
    g.net->heartbeat_sweep();
    EXPECT_EQ(ts.kind_count(MessageKind::kHeartbeatProbe) - probes0,
              listers.size());
    for (const auto& n : reg.nodes()) {
      if (n->alive) {
        EXPECT_FALSE(lists(*n, x));
      }
    }
    g.net->check_property1();
    g.net->check_backpointer_symmetry();
  }
}

TEST(ThreadedRepair, LeaveWaveTombstonesFreeTheirTables) {
  // Each departure ends with no live link to its leaver, so a leave wave
  // frees every victim's table, on one worker or four, and the mesh keeps
  // Property 1, symmetric backpointers and nothing for a sweep to probe.
  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    auto g = static_ring_network(128, 433, small_params());
    const auto victims = pick_victims(g.net->node_ids(), 20, 6);
    g.net->leave_bulk(victims, workers);
    for (const NodeId& v : victims)
      EXPECT_EQ(g.net->node(v).table().member_count(), 0u) << v.to_string();
    g.net->check_property1();
    g.net->check_backpointer_symmetry();
    test::expect_tombstones_follow_links(*g.net);
    const TransportStats& ts = g.net->transport().stats();
    const std::uint64_t probes0 = ts.kind_count(MessageKind::kHeartbeatProbe);
    g.net->heartbeat_sweep();
    EXPECT_EQ(ts.kind_count(MessageKind::kHeartbeatProbe), probes0);
    test::expect_tombstones_follow_links(*g.net);
  }
}

TEST(ThreadedRepair, FailWaveTombstonesKeepTheirTablesUntilTheSweep) {
  // A fail wave purges every victim from its holders, but the victims'
  // live members still keep backpointers to them, so each keeps its table
  // and the converse half of the symmetry check still reads it.  A node
  // that died by a plain fail() before the wave is still listed by its
  // holders and keeps its table too.  The next sweep's pushes and probes
  // cut every one of those links, and each table goes with its last.
  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    auto g = static_ring_network(128, 420, small_params());
    const auto ids = g.net->node_ids();
    const auto victims = pick_victims(ids, 20, 6);  // ids 1, 7, 13, ...
    const NodeId x = ids[2];
    g.net->fail(x);
    g.net->fail_and_repair_bulk(victims, workers);
    EXPECT_GT(g.net->node(x).table().total_entries(), 0u);
    for (const NodeId& v : victims)
      EXPECT_GT(g.net->node(v).table().total_entries(), 0u) << v.to_string();
    g.net->check_property1();
    g.net->check_backpointer_symmetry();
    test::expect_tombstones_follow_links(*g.net);

    g.net->heartbeat_sweep();
    EXPECT_EQ(g.net->node(x).table().member_count(), 0u);
    for (const NodeId& v : victims)
      EXPECT_EQ(g.net->node(v).table().member_count(), 0u) << v.to_string();
    g.net->check_property1();
    g.net->check_backpointer_symmetry();
    test::expect_tombstones_follow_links(*g.net);
  }
}

TEST(ThreadedRepair, WaveLeavesHolesItDidNotOpenToTheSweep) {
  // A wave repairs only what it breaks.  A hole it did not open, here a
  // slot whose only member was unlinked by hand, stays open through a
  // fail wave of other nodes; the next heartbeat sweep fills it.
  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    auto g = static_ring_network(128, 419, small_params());
    const auto ids = g.net->node_ids();
    const test::Hole h = test::unlink_sole_member(*g.net);
    ASSERT_TRUE(g.net->node(h.owner).table().slot_empty(h.level, h.digit));

    std::vector<NodeId> victims;
    for (std::size_t i = 1; victims.size() < 16; i += 6)
      if (!(ids[i] == h.owner) && !(ids[i] == h.member))
        victims.push_back(ids[i]);
    g.net->fail_and_repair_bulk(victims, workers);
    EXPECT_TRUE(g.net->node(h.owner).table().slot_empty(h.level, h.digit))
        << "the wave filled a hole it did not open";

    g.net->heartbeat_sweep();
    EXPECT_TRUE(g.net->node(h.owner).table().at(h.level, h.digit).contains(
        h.member));
    g.net->check_property1();
    g.net->check_backpointer_symmetry();
  }
}

}  // namespace
}  // namespace tap
