// Thread-parallel dynamic insertion (§4.4 on real threads): batches of
// joins driven by join_bulk waves across sim/thread_pool workers must
// converge — for the same seed at ANY worker count — to a table set
// satisfying the §4.4 invariants (Property 1, backpointer symmetry, no
// leftover pins, surrogate agreement).  The whole binary runs under TSan
// in CI: these tests are where real threads genuinely contend on the
// routing tables, and where wave workers read node liveness and the
// registry's index while other workers count their joiners live.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/tapestry/fingerprint.h"
#include "src/tapestry/network.h"
#include "test_util.h"

namespace tap {
namespace {

using test::expect_no_pins;
using test::make_guid;
using test::small_params;
using test::static_ring_network;

std::vector<JoinRequest> wave_requests(std::size_t core, std::size_t count) {
  std::vector<JoinRequest> reqs(count);
  for (std::size_t i = 0; i < count; ++i) reqs[i].loc = core + i;
  return reqs;
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

TEST(ThreadedJoin, GuardedPeekAgreesWithMutatingRouteAfterWave) {
  // Satellite of the peek-vs-mutating agreement suite, threaded side: once
  // a 4-worker wave is quiescent, the guarded peek (a join worker's walk
  // to its surrogate), the plain peek and the mutating walk must agree on
  // every sampled root.
  auto g = static_ring_network(96, 224);
  const NodeLockTable* locks = &g.net->registry().node_locks();
  g.net->join_bulk(wave_requests(96, 32), /*workers=*/4);

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
  // through a 4-worker join_bulk wave, and through join_events
  // must reach the same membership and, Property 1 holding on each, the
  // same occupancy pattern, with symmetric backpointers and no pins left.
  // join_via and join_bulk run one insertion body, so on these object-free
  // overlays a one-worker wave is the serial leg's exact twin: the same
  // tables, the same booked messages and the same deliveries.  The twin
  // runs at radix 16, 4 and 2.  At the last two the §3 descent trims its
  // lists to k = effective_k(live_count()), which grows from 20 to 21
  // during the 24 joins, so it also pins when a wave's joiner starts to
  // count as live: when its insertion begins, as a serial join's does.
  // The 4-worker and event legs run at radix 16.
  for (const IdSpec spec : {IdSpec{4, 8}, IdSpec{2, 8}, IdSpec{1, 16}}) {
    for (const std::uint64_t seed : {411u, 412u, 413u}) {
      SCOPED_TRACE("radix " + std::to_string(spec.radix()));
      const bool all_legs = spec.radix() == 16;
      TapestryParams p = small_params();
      p.id = spec;
      auto serial = test::grow_ring_network(96, seed, p);
      auto single = test::grow_ring_network(96, seed, p);
      Rng draw(seed ^ 0x7a11);
      std::set<std::uint64_t> used;
      for (const NodeId& id : serial.ids) used.insert(id.value());
      std::vector<JoinRequest> reqs;
      std::vector<EventJoin> event_reqs;
      while (reqs.size() < 24) {
        const NodeId id = Id::random(serial.net->params().id, draw);
        if (!used.insert(id.value()).second) continue;
        const std::size_t i = reqs.size();
        JoinRequest r;
        r.loc = 96 + i;
        r.id = id;
        r.gateway = serial.ids[draw.next_u64(serial.ids.size())];
        reqs.push_back(r);
        EventJoin e;
        e.loc = r.loc;
        e.id = id;
        e.gateway = *r.gateway;
        e.start_time = 0.001 * double(i);
        event_reqs.push_back(e);
      }

      Trace serial_trace;
      for (const JoinRequest& r : reqs)
        serial.net->join_via(*r.gateway, r.loc, r.id, &serial_trace);
      Trace single_trace;
      single.net->join_bulk(reqs, /*workers=*/1, &single_trace);

      auto sorted_ids = [](const Network& net) {
        std::vector<std::uint64_t> v;
        for (const NodeId& id : net.node_ids()) v.push_back(id.value());
        std::sort(v.begin(), v.end());
        return v;
      };
      EXPECT_EQ(fingerprint_tables(*single.net),
                fingerprint_tables(*serial.net))
          << "seed " << seed;
      EXPECT_EQ(single_trace.messages(), serial_trace.messages())
          << "seed " << seed;
      EXPECT_EQ(single.net->transport().stats().messages.load(),
                serial.net->transport().stats().messages.load())
          << "seed " << seed;
      std::vector<const Network*> legs{serial.net.get(), single.net.get()};
      test::GrownNetwork threaded, event;
      if (all_legs) {
        threaded = test::grow_ring_network(96, seed, p);
        event = test::grow_ring_network(96, seed, p);
        threaded.net->join_bulk(reqs, /*workers=*/4);
        event.net->join_events(event_reqs, 0.05);
        legs.push_back(threaded.net.get());
        legs.push_back(event.net.get());
      }
      for (const Network* net : legs) {
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
