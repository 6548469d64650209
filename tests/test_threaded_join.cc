// Thread-parallel dynamic insertion (§4.4 on real threads): batches of
// joins driven by join_bulk waves across sim/thread_pool workers must
// converge — for the same seed at ANY worker count — to a table set
// satisfying the §4.4 invariants (Property 1, backpointer symmetry, no
// leftover pins, surrogate agreement), while deliberately racing guarded
// store batch publishes and expiry sweeps.  The whole binary runs under
// TSan in CI: these tests are where real threads genuinely contend on the
// routing tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/tapestry/fingerprint.h"
#include "src/tapestry/network.h"
#include "src/tapestry/parallel_join.h"
#include "test_util.h"

namespace tap {
namespace {

using test::make_guid;
using test::small_params;
using test::static_ring_network;

std::vector<JoinRequest> wave_requests(std::size_t core, std::size_t count) {
  std::vector<JoinRequest> reqs(count);
  for (std::size_t i = 0; i < count; ++i) reqs[i].loc = core + i;
  return reqs;
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

void expect_surrogate_agreement(Network& net, std::uint64_t salt,
                                std::size_t objects) {
  // Theorem 2 on the converged mesh: every start reaches the same root.
  const auto ids = net.node_ids();
  for (std::size_t k = 0; k < objects; ++k) {
    const Guid guid = make_guid(net, salt + k);
    std::set<std::uint64_t> roots;
    for (const NodeId& src : ids)
      roots.insert(net.router().route_to_root_peek(src, guid).root.value());
    EXPECT_EQ(roots.size(), 1u) << "root disagreement for object " << k;
  }
}

TEST(ThreadedJoin, SingleJoinMatchesInvariants) {
  auto g = static_ring_network(64, 220);
  const auto ids = g.net->join_bulk(wave_requests(64, 1), /*workers=*/1);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_TRUE(g.net->contains(ids[0]));
  EXPECT_FALSE(g.net->node(ids[0]).inserting);
  g.net->check_property1();
  g.net->check_backpointer_symmetry();
  expect_no_pins(*g.net);
}

TEST(ThreadedJoin, WaveConvergesForEveryWorkerCount) {
  // Same seed, workers 1/2/4/8: identical membership (ids are drawn
  // serially), Property 1, symmetric backpointers, no pins — and identical
  // occupancy fingerprints, the invariant-convergent §4.4 witness (the
  // members filling each slot may differ with message ordering; the
  // pattern of filled slots may not).
  std::vector<std::uint64_t> member_fp;
  std::vector<std::uint64_t> occupancy_fp;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    auto g = static_ring_network(96, 221);
    const auto ids = g.net->join_bulk(wave_requests(96, 24), workers);
    EXPECT_EQ(g.net->size(), 96u + 24u) << "workers=" << workers;

    detail::Fnv1a members;
    std::vector<std::uint64_t> sorted;
    for (const NodeId& id : ids) sorted.push_back(id.value());
    std::sort(sorted.begin(), sorted.end());
    for (const std::uint64_t v : sorted) members.mix(v);
    member_fp.push_back(members.value());

    g.net->check_property1();
    g.net->check_backpointer_symmetry();
    expect_no_pins(*g.net);
    for (const NodeId& id : ids) EXPECT_FALSE(g.net->node(id).inserting);
    occupancy_fp.push_back(fingerprint_occupancy(*g.net));
    expect_surrogate_agreement(*g.net, 7000, 4);
  }
  for (std::size_t i = 1; i < member_fp.size(); ++i) {
    EXPECT_EQ(member_fp[0], member_fp[i])
        << "membership must not depend on the worker count";
    EXPECT_EQ(occupancy_fp[0], occupancy_fp[i])
        << "occupancy pattern must not depend on the worker count";
  }
}

TEST(ThreadedJoin, RepeatedSeedsConverge) {
  // Shake the interleavings: several seeds, 4 workers each, full invariant
  // sweep after every wave.
  for (const std::uint64_t seed : {301u, 302u, 303u}) {
    auto g = static_ring_network(80, seed);
    g.net->join_bulk(wave_requests(80, 32), /*workers=*/4);
    EXPECT_EQ(g.net->size(), 80u + 32u) << "seed " << seed;
    g.net->check_property1();
    g.net->check_backpointer_symmetry();
    expect_no_pins(*g.net);
  }
}

TEST(ThreadedJoin, WaveRacesShardedStoreBatchPublish) {
  // The acceptance wave: >= 64 dynamic joins on 4 real threads while a
  // guarded batch publish drains into ShardedStore stripes underneath
  // them.  After both settle, one soft-state republish (the paper's §6.5
  // backstop) must restore Property 4 and full locatability.
  TapestryParams p = small_params();
  p.store_backend = StoreBackend::kSharded;
  auto g = static_ring_network(192, 222, p);

  // A quiescent pre-wave workload, published serially.
  std::vector<Guid> guids;
  Rng wl(97);
  const auto core_ids = g.net->node_ids();
  for (int i = 0; i < 24; ++i) {
    const Guid guid = make_guid(*g.net, 9000 + i);
    guids.push_back(guid);
    g.net->publish(core_ids[wl.next_u64(core_ids.size())], guid);
  }

  // A second workload batch-published (guarded walks) WHILE the wave runs.
  std::vector<ObjectDirectory::PublishRequest> pubs;
  for (int i = 0; i < 48; ++i)
    pubs.push_back({core_ids[wl.next_u64(core_ids.size())],
                    make_guid(*g.net, 9500 + i)});

  std::thread racer([&] { g.net->publish_batch(pubs, 2, nullptr, true); });
  const auto ids = g.net->join_bulk(wave_requests(192, 64), /*workers=*/4);
  racer.join();

  EXPECT_EQ(ids.size(), 64u);
  EXPECT_EQ(g.net->size(), 192u + 64u);
  g.net->check_property1();
  g.net->check_backpointer_symmetry();
  expect_no_pins(*g.net);
  expect_surrogate_agreement(*g.net, 7700, 4);

  // Soft-state backstop, then Property 4 and availability must hold for
  // both the quiescent and the racing workload.
  g.net->republish_all();
  g.net->check_property4();
  for (const auto& r : pubs) guids.push_back(r.guid);
  const auto all_ids = g.net->node_ids();
  Rng ql(98);
  for (const Guid& guid : guids)
    EXPECT_TRUE(
        g.net->locate(all_ids[ql.next_u64(all_ids.size())], guid).found);
}

TEST(ThreadedJoin, WaveRacesExpirySweeps) {
  // Multi-worker expiry sweeps (per-node store passes over a registry
  // snapshot) race the join wave's concurrent registrations.
  TapestryParams p = small_params();
  p.store_backend = StoreBackend::kSharded;
  p.pointer_ttl = 5.0;
  auto g = static_ring_network(96, 223, p);
  Rng wl(99);
  const auto core_ids = g.net->node_ids();
  std::vector<Guid> guids;
  for (int i = 0; i < 16; ++i) {
    const Guid guid = make_guid(*g.net, 9900 + i);
    guids.push_back(guid);
    g.net->publish(core_ids[wl.next_u64(core_ids.size())], guid);
  }

  std::atomic<bool> stop{false};
  std::thread sweeper([&] {
    while (!stop.load(std::memory_order_relaxed))
      g.net->expire_pointers(/*workers=*/2);
  });
  g.net->join_bulk(wave_requests(96, 32), /*workers=*/4);
  stop.store(true, std::memory_order_relaxed);
  sweeper.join();

  g.net->check_property1();
  g.net->check_backpointer_symmetry();
  // Nothing reached its deadline (the clock never advanced), so the racing
  // sweeps must not have dropped a single pointer.
  g.net->republish_all();
  g.net->check_property4();
  const auto all_ids = g.net->node_ids();
  for (const Guid& guid : guids)
    EXPECT_TRUE(g.net->locate(all_ids[3], guid).found);
}

TEST(ThreadedJoin, GuardedPeekAgreesWithMutatingRouteAfterWave) {
  // Satellite of the peek-vs-mutating agreement suite, threaded side:
  // guarded peeks hammer the mesh from a prober thread while joins are
  // mid-flight with pinned entries present (any result is acceptable
  // mid-race as long as it is a live node and the walk terminates); once
  // quiescent, the guarded peek, the plain peek and the mutating walk must
  // agree on every sampled root.
  auto g = static_ring_network(96, 224);
  std::atomic<bool> stop{false};
  std::atomic<bool> dead_root{false};
  std::atomic<std::size_t> probes{0};
  const auto core_ids = g.net->node_ids();
  const NodeLockTable* locks = &g.net->registry().node_locks();
  std::thread prober([&] {
    // gtest assertions are not thread-safe off the main thread; flag it.
    Rng pr(4321);
    while (!stop.load(std::memory_order_relaxed)) {
      const NodeId src = core_ids[pr.next_u64(core_ids.size())];
      const Guid target = make_guid(*g.net, 5000 + pr.next_u64(64));
      const RouteResult r =
          g.net->router().route_to_root_peek(src, target, nullptr, locks);
      if (!g.net->registry().is_live(r.root))
        dead_root.store(true, std::memory_order_relaxed);
      probes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  g.net->join_bulk(wave_requests(96, 32), /*workers=*/4);
  stop.store(true, std::memory_order_relaxed);
  prober.join();
  EXPECT_GT(probes.load(), 0u) << "the prober must actually race the wave";
  EXPECT_FALSE(dead_root.load()) << "a guarded walk reached a dead root";

  Rng pr(8765);
  const auto ids = g.net->node_ids();
  for (int k = 0; k < 32; ++k) {
    const NodeId src = ids[pr.next_u64(ids.size())];
    const Guid target = make_guid(*g.net, 5000 + pr.next_u64(64));
    const NodeId peek = g.net->router().route_to_root_peek(src, target).root;
    const NodeId guarded =
        g.net->router().route_to_root_peek(src, target, nullptr, locks).root;
    const NodeId mutating = g.net->route_to_root(src, target).root;
    EXPECT_EQ(peek.value(), guarded.value());
    EXPECT_EQ(peek.value(), mutating.value());
  }
}

TEST(ThreadedJoin, WaveAgreesWithSerialAndCoordinator) {
  // One protocol, run three ways: the same 24 insertions (explicit ids and
  // gateways, drawn up front) through serial join_via in request order,
  // through a 4-worker join_bulk wave, and through the event coordinator
  // must reach the same membership and, Property 1 holding on each, the
  // same occupancy pattern, with symmetric backpointers and no pins left.
  for (const std::uint64_t seed : {411u, 412u, 413u}) {
    auto serial = test::grow_ring_network(96, seed);
    auto threaded = test::grow_ring_network(96, seed);
    auto event = test::grow_ring_network(96, seed);
    Rng draw(seed ^ 0x7a11);
    std::set<std::uint64_t> used;
    for (const NodeId& id : serial.ids) used.insert(id.value());
    std::vector<JoinRequest> reqs;
    std::vector<ParallelJoinCoordinator::Request> event_reqs;
    while (reqs.size() < 24) {
      const NodeId id = Id::random(serial.net->params().id, draw);
      if (!used.insert(id.value()).second) continue;
      const std::size_t i = reqs.size();
      JoinRequest r;
      r.loc = 96 + i;
      r.id = id;
      r.gateway = serial.ids[draw.next_u64(serial.ids.size())];
      reqs.push_back(r);
      ParallelJoinCoordinator::Request e;
      e.loc = r.loc;
      e.id = id;
      e.gateway = *r.gateway;
      e.start_time = 0.001 * double(i);
      event_reqs.push_back(e);
    }

    for (const JoinRequest& r : reqs)
      serial.net->join_via(*r.gateway, r.loc, r.id);
    threaded.net->join_bulk(reqs, /*workers=*/4);
    ParallelJoinCoordinator coord(*event.net, 0.05);
    coord.run(event_reqs);

    auto sorted_ids = [](const Network& net) {
      std::vector<std::uint64_t> v;
      for (const NodeId& id : net.node_ids()) v.push_back(id.value());
      std::sort(v.begin(), v.end());
      return v;
    };
    for (const Network* net : {serial.net.get(), threaded.net.get(),
                               event.net.get()}) {
      EXPECT_EQ(sorted_ids(*net), sorted_ids(*serial.net)) << "seed " << seed;
      EXPECT_EQ(fingerprint_occupancy(*net),
                fingerprint_occupancy(*serial.net))
          << "seed " << seed;
      net->check_property1();
      net->check_backpointer_symmetry();
      expect_no_pins(*net);
    }
  }
}

TEST(ThreadedJoin, WavesKeepProperty1AtRedundancyOne) {
  // §4.4 waves at R = 1, where each own-digit slot lists only its owner:
  // the wave's multicast must still reach every node sharing the new
  // node's prefix.  Static 32-node rings plus 48 joins, at radix 4 and
  // 3-digit radix 16.  A one-worker wave is deterministic and must keep
  // Property 1.  On four workers a multicast can still enter a subtree
  // only through a node whose own insertion has not yet built its table
  // (ROADMAP item 1), so there one heartbeat sweep must make it whole.
  for (const IdSpec id : {IdSpec{2, 6}, IdSpec{4, 3}}) {
    for (const std::size_t workers : {1u, 4u}) {
      for (const std::uint64_t seed : {1u, 2u}) {
        SCOPED_TRACE("radix " + std::to_string(id.radix()) + " workers " +
                     std::to_string(workers) + " seed " +
                     std::to_string(seed));
        TapestryParams p = small_params();
        p.id = id;
        p.redundancy = 1;
        auto g = static_ring_network(32, seed, p);
        g.net->join_bulk(wave_requests(32, 48), workers);
        g.net->check_backpointer_symmetry();
        expect_no_pins(*g.net);
        if (workers > 1) g.net->heartbeat_sweep();
        EXPECT_NO_THROW(g.net->check_property1());
      }
    }
  }
}

TEST(ThreadedJoin, GrownCoreAcceptsThreadedWave) {
  // The wave also lands on a core built by the *dynamic* join protocol
  // (not the static oracle), stacking threaded state on organic tables.
  auto g = test::grow_ring_network(48, 225);
  g.net->join_bulk(wave_requests(48, 16), /*workers=*/4);
  EXPECT_EQ(g.net->size(), 48u + 16u);
  g.net->check_property1();
  g.net->check_backpointer_symmetry();
  expect_no_pins(*g.net);
}

}  // namespace
}  // namespace tap
