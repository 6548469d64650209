// Simultaneous insertion (§4.4, Theorem 6): batches of nodes inserting at
// overlapping times — with genuinely interleaved message delivery — must
// leave the network with no Property 1 holes, including the adversarial
// same-hole and same-prefix-different-hole conflicts of Lemmas 5 and 6.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/tapestry/fingerprint.h"
#include "src/tapestry/parallel_join.h"
#include "test_util.h"

namespace tap {
namespace {

using test::grow_ring_network;
using test::make_guid;
using test::small_params;

ParallelJoinCoordinator::Request req(Location loc, NodeId gw, double t,
                                     std::optional<NodeId> id = std::nullopt) {
  ParallelJoinCoordinator::Request r;
  r.loc = loc;
  r.gateway = gw;
  r.start_time = t;
  r.id = id;
  return r;
}

TEST(ParallelJoin, SingleAsyncJoinMatchesInvariants) {
  auto g = grow_ring_network(64, 120);
  ParallelJoinCoordinator coord(*g.net, 0.01);
  const auto outcomes = coord.run({req(64, g.ids[0], 0.0)});
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(g.net->contains(outcomes[0].id));
  EXPECT_FALSE(g.net->node(outcomes[0].id).inserting);
  g.net->check_property1();
  g.net->check_backpointer_symmetry();
}

TEST(ParallelJoin, ConcurrentBatchLeavesNoHoles) {
  auto g = grow_ring_network(96, 121);
  ParallelJoinCoordinator coord(*g.net, 0.05);
  std::vector<ParallelJoinCoordinator::Request> reqs;
  for (int i = 0; i < 16; ++i)
    reqs.push_back(req(96 + i, g.ids[static_cast<std::size_t>(i) * 3 %
                                     g.ids.size()],
                       0.001 * i));
  const auto outcomes = coord.run(reqs);
  EXPECT_EQ(g.net->size(), 96u + 16u);
  for (const auto& o : outcomes) {
    EXPECT_TRUE(g.net->contains(o.id));
    EXPECT_GE(o.core_time, o.start_time);
    EXPECT_GE(o.done_time, o.core_time);
    EXPECT_GT(o.messages, 0u);
  }
  g.net->check_property1();
  g.net->check_backpointer_symmetry();
  // No pinned entries may survive the batch.
  for (const NodeId& id : g.net->node_ids()) {
    const auto& table = g.net->node(id).table();
    for (unsigned l = 0; l < g.net->params().id.num_digits; ++l)
      for (unsigned j = 0; j < 16; ++j)
        EXPECT_TRUE(table.at(l, j).pinned_members().empty());
  }
}

TEST(ParallelJoin, SameHoleConflictBothLearnOfEachOther) {
  // Lemma 5: craft two inserters that fill the *same* hole: same prefix
  // digits, different tails, where no existing node carries the prefix.
  auto g = grow_ring_network(64, 122);
  // Find a 2-digit prefix no live node carries.
  const IdSpec spec = g.net->params().id;
  std::optional<Id> free_prefix;
  Rng probe(9);
  for (int t = 0; t < 4096 && !free_prefix; ++t) {
    const Id cand = Id::random(spec, probe);
    bool taken = false;
    for (const NodeId& id : g.net->node_ids())
      if (id.matches_prefix(cand, 2)) taken = true;
    if (!taken) free_prefix = cand;
  }
  ASSERT_TRUE(free_prefix.has_value()) << "no free prefix in a 64-node net";
  const NodeId n1 = free_prefix->with_digit(7, 1);
  const NodeId n2 = free_prefix->with_digit(7, 2);
  ASSERT_FALSE(n1 == n2);

  ParallelJoinCoordinator coord(*g.net, 0.08);
  coord.run({req(64, g.ids[0], 0.0, n1), req(65, g.ids[5], 0.0001, n2)});

  // Both nodes must know each other (they share >= 2 digits, so each fills
  // the other's table at the shared-prefix levels).
  const unsigned gcp = n1.common_prefix_len(n2);
  for (unsigned l = 0; l <= 2 && l < gcp; ++l) {
    EXPECT_TRUE(g.net->node(n1).table().at(l, n2.digit(l)).contains(n2))
        << "n1 missing n2 at level " << l;
    EXPECT_TRUE(g.net->node(n2).table().at(l, n1.digit(l)).contains(n1))
        << "n2 missing n1 at level " << l;
  }
  g.net->check_property1();
}

TEST(ParallelJoin, DifferentHolesSamePrefixWatchListCatches) {
  // Lemma 6: two inserters under the same (existing) prefix β but filling
  // different digit holes; the watch list / pinned forwarding must connect
  // them.  Construction: β = an occupied first digit; i, j = two second
  // digits no existing node carries under β.
  auto g = grow_ring_network(64, 123);
  const IdSpec spec = g.net->params().id;
  const unsigned d0 = g.ids[0].digit(0);  // an occupied first digit
  std::vector<bool> second_taken(16, false);
  for (const NodeId& id : g.net->node_ids())
    if (id.digit(0) == d0) second_taken[id.digit(1)] = true;
  std::vector<unsigned> free_digits;
  for (unsigned j = 0; j < 16; ++j)
    if (!second_taken[j]) free_digits.push_back(j);
  ASSERT_GE(free_digits.size(), 2u) << "need two free second digits";
  const unsigned di = free_digits[0];
  const unsigned dj = free_digits[1];

  Rng tail_rng(10);
  const NodeId n1 =
      Id::random(spec, tail_rng).with_digit(0, d0).with_digit(1, di);
  const NodeId n2 =
      Id::random(spec, tail_rng).with_digit(0, d0).with_digit(1, dj);

  ParallelJoinCoordinator coord(*g.net, 0.08);
  const auto outcomes =
      coord.run({req(64, g.ids[0], 0.0, n1), req(65, g.ids[7], 0.0001, n2)});
  EXPECT_EQ(outcomes[0].alpha, 1u);
  EXPECT_EQ(outcomes[1].alpha, 1u);

  // Each must have discovered the other: n2 fills n1's (β, dj) hole at
  // level 1 and vice versa.
  EXPECT_TRUE(g.net->node(n1).table().at(1, dj).contains(n2));
  EXPECT_TRUE(g.net->node(n2).table().at(1, di).contains(n1));
  g.net->check_property1();
}

TEST(ParallelJoin, ObjectsAvailableDuringInsertions) {
  auto g = grow_ring_network(96, 124);
  Rng rng(11);
  std::vector<Guid> guids;
  for (int i = 0; i < 8; ++i) {
    const Guid guid = make_guid(*g.net, 600 + i);
    g.net->publish(g.ids[rng.next_u64(g.ids.size())], guid);
    guids.push_back(guid);
  }
  // Interleave lookups with the insertion batch via scheduled events.
  std::size_t failures = 0;
  for (int probe_i = 0; probe_i < 40; ++probe_i) {
    g.net->events().schedule_at(0.01 + 0.02 * probe_i, [&, probe_i] {
      const Guid& guid = guids[static_cast<std::size_t>(probe_i) % guids.size()];
      auto ids = g.net->node_ids();
      Rng local(static_cast<std::uint64_t>(probe_i));
      const NodeId client = ids[local.next_u64(ids.size())];
      if (!g.net->locate(client, guid).found) ++failures;
    });
  }
  ParallelJoinCoordinator coord(*g.net, 0.05);
  std::vector<ParallelJoinCoordinator::Request> reqs;
  for (int i = 0; i < 12; ++i)
    reqs.push_back(req(96 + i, g.ids[static_cast<std::size_t>(i) * 5 %
                                     g.ids.size()],
                       0.005 * i));
  coord.run(reqs);
  EXPECT_EQ(failures, 0u) << "lookups failed while nodes were inserting";
  g.net->check_property4();
}

TEST(ParallelJoin, LargeBatchOnSmallCore) {
  // Stress: 24 simultaneous inserts on a 16-node core.
  auto g = grow_ring_network(16, 125);
  ParallelJoinCoordinator coord(*g.net, 0.1);
  std::vector<ParallelJoinCoordinator::Request> reqs;
  for (int i = 0; i < 24; ++i)
    reqs.push_back(req(16 + i, g.ids[static_cast<std::size_t>(i) %
                                     g.ids.size()],
                       0.002 * i));
  coord.run(reqs);
  EXPECT_EQ(g.net->size(), 40u);
  g.net->check_property1();
  g.net->check_backpointer_symmetry();
  // Root uniqueness across the merged network.
  for (int obj = 0; obj < 10; ++obj) {
    const Guid guid = make_guid(*g.net, 1200 + obj);
    std::set<std::uint64_t> roots;
    for (const NodeId& src : g.net->node_ids())
      roots.insert(g.net->route_to_root(src, guid).root.value());
    EXPECT_EQ(roots.size(), 1u);
  }
}

TEST(ParallelJoin, PeekAgreesWithMutatingRouteMidFlight) {
  // route_to_root_peek vs route_to_root while joins are mid-flight with
  // pinned entries present (event-coordinator side; the threaded-driver
  // side lives in test_threaded_join.cc).  A reference pass learns each
  // join's [start, core] window; the probe pass replays the identical
  // schedule (probes neither mutate tables nor draw from the network Rng,
  // so the protocol timeline is unperturbed) and compares both route
  // variants in the thick of the multicasts.
  auto build = [] { return grow_ring_network(64, 127); };
  auto reqs_for = [](const test::GrownNetwork& g) {
    std::vector<ParallelJoinCoordinator::Request> reqs;
    for (int i = 0; i < 12; ++i)
      reqs.push_back(req(64 + i,
                         g.ids[static_cast<std::size_t>(i) * 5 % g.ids.size()],
                         0.003 * i));
    return reqs;
  };

  auto reference = build();
  ParallelJoinCoordinator ref_coord(*reference.net, 0.05);
  const auto ref_outcomes = ref_coord.run(reqs_for(reference));

  auto g = build();
  std::size_t compared = 0, with_pins = 0;
  auto any_pins = [&] {
    for (const NodeId& id : g.net->node_ids()) {
      const auto& t = g.net->node(id).table();
      for (unsigned l = 0; l < t.levels(); ++l)
        for (unsigned j = 0; j < t.radix(); ++j)
          if (!t.at(l, j).pinned_members().empty()) return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < ref_outcomes.size(); ++i) {
    // Midpoint of the join's multicast window: its pin is live then.
    const double t =
        0.5 * (ref_outcomes[i].start_time + ref_outcomes[i].core_time);
    g.net->events().schedule_at(t, [&, i] {
      if (any_pins()) ++with_pins;
      Rng local(static_cast<std::uint64_t>(i) * 77 + 1);
      const auto ids = g.net->node_ids();
      const NodeId src = ids[local.next_u64(ids.size())];
      const Guid target = make_guid(*g.net, 3000 + i);
      const NodeId peek = g.net->router().route_to_root_peek(src, target).root;
      const NodeId mut = g.net->route_to_root(src, target).root;
      EXPECT_EQ(peek.value(), mut.value()) << "probe " << i;
      ++compared;
    });
  }
  ParallelJoinCoordinator coord(*g.net, 0.05);
  coord.run(reqs_for(g));
  EXPECT_EQ(compared, ref_outcomes.size());
  EXPECT_GT(with_pins, 0u) << "probes must sample mid-flight pinned state";
  g.net->check_property1();
}

TEST(ParallelJoin, DeterministicGivenSeed) {
  auto run_once = [](std::uint64_t seed) {
    auto g = grow_ring_network(32, seed);
    ParallelJoinCoordinator coord(*g.net, 0.05);
    std::vector<ParallelJoinCoordinator::Request> reqs;
    for (int i = 0; i < 6; ++i)
      reqs.push_back(req(32 + i, g.ids[static_cast<std::size_t>(i) %
                                       g.ids.size()],
                         0.001 * i));
    const auto outcomes = coord.run(reqs);
    std::vector<std::uint64_t> ids;
    for (const auto& o : outcomes) ids.push_back(o.id.value());
    return ids;
  };
  EXPECT_EQ(run_once(126), run_once(126));
}

TEST(ParallelJoin, MalformedBatchRejectedBeforeScheduling) {
  // A malformed batch must throw before anything is scheduled.  A throw
  // from inside the event loop would leave events behind that capture the
  // coordinator and outlive it, and a joiner registered mid-insertion.
  // The queue is deliberately not drained here.
  auto g = grow_ring_network(64, 120);
  g.net->fail(g.ids[9]);
  const std::size_t size = g.net->size();
  const NodeId unused = g.net->fresh_node_id();
  auto expect_rejected =
      [&](const std::vector<ParallelJoinCoordinator::Request>& reqs,
          const char* what) {
        {
          ParallelJoinCoordinator coord(*g.net, 0.05);
          EXPECT_THROW(coord.run(reqs), CheckError) << what;
        }
        EXPECT_EQ(g.net->events().pending(), 0u) << what;
        EXPECT_EQ(g.net->size(), size) << what;
        for (const auto& n : g.net->registry().nodes())
          EXPECT_FALSE(n->inserting) << what;
      };
  expect_rejected(
      {req(64, g.ids[0], 0.0, unused), req(65, g.ids[1], 0.001, unused)},
      "duplicate id");
  expect_rejected({req(64, g.ids[0], 0.0), req(65, g.ids[1], 0.001, g.ids[5])},
                  "id already in use");
  expect_rejected({req(64, g.ids[0], 0.0), req(65, g.ids[9], 0.001)},
                  "failed gateway");
  expect_rejected(
      {req(64, g.ids[0], 0.0), req(g.space->size(), g.ids[1], 0.001)},
      "location outside the metric space");
}

TEST(ParallelJoin, BackpointersStaySymmetricWhileSweepsRunMidBatch) {
  // A heartbeat sweep books each live member's pushed "alive" message at
  // the node listing it, without reading the member's backpointers.  That
  // is exact only if backpointers mirror forward links at every instant a
  // sweep can run, §4.4 pins included.  Sixty instants spread over each
  // batch of 24 overlapping joins (all done by t ~ 2) check symmetry and
  // then sweep.
  std::size_t pinned = 0, inserting = 0;
  for (const std::uint64_t seed : {131u, 132u, 133u}) {
    auto g = grow_ring_network(128, seed);
    for (int k = 1; k <= 60; ++k) {
      g.net->events().schedule_at(0.035 * k, [&] {
        for (const NodeId& id : g.net->node_ids()) {
          const TapestryNode& n = g.net->node(id);
          if (n.inserting) ++inserting;
          for (unsigned l = 0; l < n.table().levels(); ++l)
            for (unsigned j = 0; j < n.table().radix(); ++j)
              pinned += n.table().at(l, j).pinned_members().size();
        }
        EXPECT_NO_THROW(g.net->check_backpointer_symmetry())
            << "seed " << seed;
        g.net->heartbeat_sweep();
      });
    }
    ParallelJoinCoordinator coord(*g.net, 0.05);
    std::vector<ParallelJoinCoordinator::Request> reqs;
    for (std::size_t i = 0; i < 24; ++i)
      reqs.push_back(req(128 + i, g.ids[5 * i % g.ids.size()], 0.002 * i));
    coord.run(reqs);
    EXPECT_EQ(g.net->size(), 128u + 24u);
    g.net->check_property1();
    g.net->check_backpointer_symmetry();
    for (const NodeId& id : g.net->node_ids()) {
      const auto& table = g.net->node(id).table();
      for (unsigned l = 0; l < table.levels(); ++l)
        for (unsigned j = 0; j < table.radix(); ++j)
          EXPECT_TRUE(table.at(l, j).pinned_members().empty());
    }
  }
  EXPECT_GT(pinned, 0u) << "instants must sample pinned entries";
  EXPECT_GT(inserting, 0u) << "instants must sample inserting nodes";
}

TEST(ParallelJoin, CoordinatorKeepsProperty1AtRedundancyOne) {
  // Overlapping §4.4 joins in simulated time at R = 1, where each
  // own-digit slot lists only its owner: static 32-node rings plus 48
  // joins, jittered so the multicasts interleave, at radix 4 and 3-digit
  // radix 16.
  for (const IdSpec id : {IdSpec{2, 6}, IdSpec{4, 3}}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("radix " + std::to_string(id.radix()) + " seed " +
                   std::to_string(seed));
      TapestryParams p = small_params();
      p.id = id;
      p.redundancy = 1;
      auto g = test::static_ring_network(32, seed, p);
      std::vector<ParallelJoinCoordinator::Request> reqs;
      for (std::size_t i = 0; i < 48; ++i)
        reqs.push_back(req(32 + i, g.ids[i % 32], 0.001 * double(i)));
      ParallelJoinCoordinator coord(*g.net, 0.5);
      coord.run(reqs);
      EXPECT_NO_THROW(g.net->check_property1());
      g.net->check_backpointer_symmetry();
    }
  }
}

TEST(ParallelJoin, TranscriptIsPinned) {
  // The event-driven §4.4 transcript, pinned: 16 overlapping joins on a
  // grown 64-node ring holding 24 objects, so the §4.2 reroutes around
  // watch-list reports, pins and the final descent are part of the
  // count.  The coordinator drives the steps serial and threaded
  // insertion share; these constants hold it to its exact message
  // schedule and jitter draws.  Memory store and direct transport are set
  // here, not taken from TAP_STORE / TAP_TRANSPORT.
  TapestryParams p;
  p.id = IdSpec{4, 8};
  p.redundancy = 3;
  p.store_backend = StoreBackend::kMemory;
  p.transport = TransportKind::kDirect;
  auto g = grow_ring_network(64, 98, p);
  for (std::size_t i = 0; i < 24; ++i)
    g.net->publish(g.ids[7 * i % 64], make_guid(*g.net, 800 + i));
  std::vector<ParallelJoinCoordinator::Request> reqs;
  for (std::size_t i = 0; i < 16; ++i)
    reqs.push_back(req(64 + i, g.ids[3 * i % 64], 0.001 * double(i)));
  ParallelJoinCoordinator coord(*g.net, 0.05);
  std::size_t messages = 0;
  for (const auto& o : coord.run(reqs)) messages += o.messages;

  g.net->check_property1();
  g.net->check_property4();
  EXPECT_EQ(g.net->size(), 80u);
  EXPECT_EQ(fingerprint_tables(*g.net), 585936318889549752ull);
  EXPECT_EQ(messages, 2753u);
  EXPECT_EQ(g.net->registry().total_object_pointers(), 66u);
}

}  // namespace
}  // namespace tap
