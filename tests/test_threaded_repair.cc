// Thread-parallel leave / fail-stop repair (§5.1, §5.2 on real threads):
// repair waves (MaintenanceEngine::leave_bulk and friends) across
// sim/thread_pool workers must converge — for the same seed at ANY worker
// count — to the same surviving membership and the same Property 1
// occupancy pattern, with backpointer symmetry and no leftover pins at
// quiescence, and with §4.2 rerouting completed INSIDE the wave: objects
// are locatable the moment the call returns, no republish backstop.  The
// serial calls and the waves run one protocol implementation; the *Agrees
// WithSerial twins check both modes land on the same invariants.  The
// whole binary runs under TSan in CI; the prober test is where guarded
// peeks genuinely race the repair threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/assert.h"
#include "src/sim/metrics.h"
#include "src/tapestry/fingerprint.h"
#include "src/tapestry/network.h"
#include "test_util.h"

namespace tap {
namespace {

using test::make_guid;
using test::small_params;
using test::static_ring_network;

TapestryParams sharded_params() {
  TapestryParams p = small_params();
  p.store_backend = StoreBackend::kSharded;
  return p;
}

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

void expect_no_pins(const Network& net) {
  for (const auto& n : net.registry().nodes()) {
    if (!n->alive) continue;
    const RoutingTable& t = n->table();
    for (unsigned l = 0; l < t.levels(); ++l)
      for (unsigned j = 0; j < t.radix(); ++j)
        ASSERT_TRUE(t.at(l, j).pinned_members().empty())
            << "leftover pin at " << n->id().to_string() << " slot (" << l
            << "," << j << ")";
  }
}

std::uint64_t membership_fingerprint(const Network& net) {
  detail::Fnv1a fp;
  std::vector<std::uint64_t> sorted;
  for (const NodeId& id : net.node_ids()) sorted.push_back(id.value());
  std::sort(sorted.begin(), sorted.end());
  for (const std::uint64_t v : sorted) fp.mix(v);
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
    auto g = static_ring_network(128, 410, sharded_params());
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
  // publish paths (§4.2 inside the wave plus the chain-repair pass).
  std::vector<std::uint64_t> member_fp;
  std::vector<std::uint64_t> occupancy_fp;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    auto g = static_ring_network(128, 411, sharded_params());
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
  TapestryParams p = sharded_params();
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

TEST(ThreadedRepair, GuardedPeekProberRacesFailWave) {
  // The TSan acceptance race: a prober thread hammers guarded root walks
  // from surviving sources while fail_and_repair_bulk tears 24 nodes out
  // of the mesh on 4 real threads.  Mid-wave a walk may find a row whose
  // every member is momentarily dead — that surfaces as CheckError, which
  // is a legal transient; crashes and torn reads are not (TSan's job).
  auto g = static_ring_network(160, 413, sharded_params());
  const auto ids = g.net->node_ids();
  const auto victims = pick_victims(ids, 24, 6);
  const auto servers = pick_survivor_servers(ids, victims, 8);
  std::vector<Guid> guids;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    const Guid guid = make_guid(*g.net, 8300 + i);
    guids.push_back(guid);
    g.net->publish(servers[i], guid);
  }
  const auto sources = pick_survivor_servers(ids, victims, 32);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> probes{0};
  std::atomic<std::size_t> transients{0};
  std::thread prober([&] {
    // gtest assertions are not thread-safe off the main thread: count,
    // assert after joining.
    Rng pr(1234);
    while (!stop.load(std::memory_order_relaxed)) {
      const NodeId src = sources[pr.next_u64(sources.size())];
      const Guid target = make_guid(*g.net, 8300 + pr.next_u64(64));
      try {
        (void)g.net->router().route_to_root_peek(
            src, target, nullptr, &g.net->registry().node_locks());
      } catch (const CheckError&) {
        transients.fetch_add(1, std::memory_order_relaxed);
      }
      probes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  g.net->fail_and_repair_bulk(victims, /*workers=*/4);
  stop.store(true, std::memory_order_relaxed);
  prober.join();

  EXPECT_GT(probes.load(), 0u) << "the prober must actually race the wave";
  g.net->check_property1();
  g.net->check_backpointer_symmetry();
  expect_no_pins(*g.net);
  // Quiescent now: every object locatable, still without a republish.
  const auto survivors = g.net->node_ids();
  for (const Guid& guid : guids)
    EXPECT_TRUE(g.net->locate(survivors[2], guid).found);
}

TEST(ThreadedRepair, LeaveKeepsObjectsLocatableOnGrownCore) {
  // Organic tables (dynamic-join core), victims chosen so some of them
  // root the published objects: in-wave rerouting must hand the pointers
  // to the new surrogate roots before leave_bulk returns.
  auto g = test::grow_ring_network(64, 414, sharded_params());
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

TEST(ThreadedRepair, MultiWorkerWavesRefuseUnlockedStores) {
  // Leave, fail and heartbeat waves write node stores from every worker,
  // and the memory store has no locks: on more than one worker (0 =
  // hardware concurrency counts as more on every machine) each wave is
  // refused before it changes anything.  One worker runs it as usual.
  TapestryParams p = small_params();
  p.store_backend = StoreBackend::kMemory;
  for (const char* wave : {"leave", "fail", "heartbeat"}) {
    SCOPED_TRACE(wave);
    auto g = static_ring_network(96, 418, p);
    const auto ids = g.net->node_ids();
    const auto victims = pick_victims(ids, 10, 8);
    const auto servers = pick_survivor_servers(ids, victims, 16);
    for (std::size_t i = 0; i < servers.size(); ++i)
      g.net->publish(servers[i], make_guid(*g.net, 8900 + i));
    const std::string kind = wave;
    if (kind == "heartbeat")
      for (const NodeId& v : victims) g.net->fail(v);
    auto run = [&](std::size_t workers) {
      if (kind == "leave") g.net->leave_bulk(victims, workers);
      if (kind == "fail") g.net->fail_and_repair_bulk(victims, workers);
      if (kind == "heartbeat") g.net->heartbeat_sweep_bulk(workers);
    };

    const std::uint64_t members = membership_fingerprint(*g.net);
    const auto published = sorted_published(*g.net);
    const std::uint64_t stores = fingerprint_stores(*g.net);
    for (const std::size_t workers : {0u, 4u}) {
      EXPECT_THROW(run(workers), CheckError) << "workers=" << workers;
      EXPECT_EQ(membership_fingerprint(*g.net), members);
      EXPECT_EQ(sorted_published(*g.net), published);
      EXPECT_EQ(fingerprint_stores(*g.net), stores);
    }
    run(1);
    EXPECT_EQ(g.net->size(), 96u - victims.size());
    g.net->check_property1();
    g.net->check_backpointer_symmetry();
  }
}

TEST(ThreadedRepair, HeartbeatSweepBulkRepairsUnannouncedFailures) {
  // Plain fail() marks corpses without repair; the threaded sweep must
  // then restore Property 1 and symmetry at any worker count, matching
  // the serial sweep's invariants.  Its purges and fills reroute pointers
  // on parallel threads, so it ends with the wave epilogue's chain repair:
  // objects published on survivors are locatable without a republish.
  for (const std::size_t workers : {1u, 4u}) {
    auto g = static_ring_network(96, 415, sharded_params());
    const auto ids = g.net->node_ids();
    const auto victims = pick_victims(ids, 12, 7);
    const auto servers = pick_survivor_servers(ids, victims, 10);
    std::vector<Guid> guids;
    for (std::size_t i = 0; i < servers.size(); ++i) {
      const Guid guid = make_guid(*g.net, 8600 + i);
      guids.push_back(guid);
      g.net->publish(servers[i], guid);
    }
    for (const NodeId& v : victims) g.net->fail(v);

    const std::uint64_t sweeps = metrics::heartbeat_sweeps_total().value();
    g.net->heartbeat_sweep_bulk(workers);
    EXPECT_EQ(metrics::heartbeat_sweeps_total().value() - sweeps, 1u);

    g.net->check_property1();
    g.net->check_backpointer_symmetry();
    expect_no_pins(*g.net);
    const auto survivors = g.net->node_ids();
    Rng ql(88);
    for (const Guid& guid : guids)
      EXPECT_TRUE(
          g.net->locate(survivors[ql.next_u64(survivors.size())], guid).found)
          << "object lost in the sweep (workers=" << workers << ")";
  }
}

TEST(ThreadedRepair, HealthySweepBulkAgreesWithSerial) {
  // Heartbeats on a healthy overlay: every live member pushes one "alive"
  // message per distinct link, nobody is probed, and nothing changes.
  // The serial sweep and the threaded one share that code, so they must
  // deliver the same heartbeats, book them alike on the Trace and leave
  // identical tables.
  auto serial = static_ring_network(96, 417, sharded_params());
  auto threaded = static_ring_network(96, 417, sharded_params());
  auto heartbeats = [](const Network& net) {
    return net.transport().stats().kind_count(MessageKind::kHeartbeatAck);
  };
  const std::uint64_t serial_before = heartbeats(*serial.net);
  const std::uint64_t threaded_before = heartbeats(*threaded.net);
  Trace serial_trace, threaded_trace;
  serial.net->heartbeat_sweep(&serial_trace);
  threaded.net->heartbeat_sweep_bulk(/*workers=*/4, &threaded_trace);

  const std::uint64_t pushed = heartbeats(*serial.net) - serial_before;
  EXPECT_GT(pushed, 0u);
  EXPECT_EQ(heartbeats(*threaded.net) - threaded_before, pushed);
  EXPECT_EQ(serial_trace.messages(), pushed);
  EXPECT_EQ(threaded_trace.messages(), pushed);
  for (const Network* net : {serial.net.get(), threaded.net.get()}) {
    EXPECT_EQ(net->transport().stats().kind_count(MessageKind::kHeartbeatProbe),
              0u);
    net->check_property1();
    net->check_backpointer_symmetry();
  }
  EXPECT_EQ(fingerprint_tables(*serial.net), fingerprint_tables(*threaded.net));
}

TEST(ThreadedRepair, RepairWavesSendNoHeartbeats) {
  // A leave or fail wave reaches exactly its victims' holders and ends
  // with the chain pass: no heartbeat push, no probe,
  // no sweep counted, at any worker count.  Nor does it leave a sweep any
  // work: a serial heartbeat_sweep right after it finds no corpse listed
  // and changes no table.
  for (const std::string wave : {"fail", "leave"}) {
    for (const std::size_t workers : {1u, 4u}) {
      SCOPED_TRACE(wave + " workers=" + std::to_string(workers));
      auto g = static_ring_network(128, 419, sharded_params());
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

      const std::uint64_t tables = fingerprint_tables(*g.net);
      g.net->heartbeat_sweep();
      EXPECT_EQ(probes() - probes0, 0u) << "the wave left a victim listed";
      EXPECT_EQ(fingerprint_tables(*g.net), tables)
          << "the wave left a slot for the sweep to fill";
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
    auto g = static_ring_network(128, 420, sharded_params());
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
    g.net->heartbeat_sweep_bulk(workers);
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

TEST(ThreadedRepair, WaveLeavesHolesItDidNotOpenToTheSweep) {
  // A wave repairs only what it breaks.  A hole it did not open, here a
  // slot whose only member was unlinked by hand, stays open through a
  // fail wave of other nodes; the next heartbeat_sweep_bulk fills it.
  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    auto g = static_ring_network(128, 419, sharded_params());
    const auto ids = g.net->node_ids();
    // The first slot, other than its owner's own digit, with one member.
    NodeId owner{};
    NodeId member{};
    unsigned level = 0;
    unsigned digit = 0;
    for (const NodeId& id : ids) {
      const RoutingTable& t = g.net->node(id).table();
      for (unsigned l = 0; l < t.levels() && !owner.valid(); ++l) {
        for (unsigned j = 0; j < t.radix() && !owner.valid(); ++j) {
          if (j == id.digit(l) || t.at(l, j).size() != 1) continue;
          owner = id;
          member = t.at(l, j).entries()[0].id;
          level = l;
          digit = j;
        }
      }
      if (owner.valid()) break;
    }
    ASSERT_TRUE(owner.valid());
    tap::unlink(g.net->registry(), g.net->node(owner), level, member);
    ASSERT_TRUE(g.net->node(owner).table().slot_empty(level, digit));

    std::vector<NodeId> victims;
    for (std::size_t i = 1; victims.size() < 16; i += 6)
      if (!(ids[i] == owner) && !(ids[i] == member)) victims.push_back(ids[i]);
    g.net->fail_and_repair_bulk(victims, workers);
    EXPECT_TRUE(g.net->node(owner).table().slot_empty(level, digit))
        << "the wave filled a hole it did not open";

    g.net->heartbeat_sweep_bulk(workers);
    EXPECT_TRUE(g.net->node(owner).table().at(level, digit).contains(member));
    g.net->check_property1();
    g.net->check_backpointer_symmetry();
  }
}

}  // namespace
}  // namespace tap
