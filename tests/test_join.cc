// Dynamic node insertion (§3-§4): the grown network must satisfy the same
// invariants as the statically built one, objects must survive membership
// growth (Property 4 + availability), and the nearest-neighbor machinery
// must produce locality-correct tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "src/common/stats.h"
#include "src/metric/analysis.h"
#include "src/tapestry/fingerprint.h"
#include "test_util.h"

namespace tap {
namespace {

using test::grow_ring_network;
using test::make_guid;
using test::property1_holds;
using test::small_params;
using test::static_ring_network;

/// Routing mode and redundancy R: R = 1 leaves each own-digit slot listing
/// only its owner, which the default R = 3 hides.
class JoinModeTest
    : public ::testing::TestWithParam<std::tuple<RoutingMode, unsigned>> {
 protected:
  static TapestryParams params() {
    TapestryParams p = small_params(std::get<0>(GetParam()));
    p.redundancy = std::get<1>(GetParam());
    return p;
  }
};

TEST_P(JoinModeTest, GrownNetworkSatisfiesProperty1) {
  auto g = grow_ring_network(160, 40, params());
  g.net->check_property1();
  g.net->check_backpointer_symmetry();
}

TEST_P(JoinModeTest, GrownNetworkRootsAreUnique) {
  auto g = grow_ring_network(96, 41, params());
  for (int obj = 0; obj < 20; ++obj) {
    const Guid guid = make_guid(*g.net, 3000 + obj);
    std::set<std::uint64_t> roots;
    for (const NodeId& src : g.ids)
      roots.insert(g.net->route_to_root(src, guid).root.value());
    EXPECT_EQ(roots.size(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothModes, JoinModeTest,
    ::testing::Combine(::testing::Values(RoutingMode::kTapestryNative,
                                         RoutingMode::kPrrLike),
                       ::testing::Values(1u, 3u)),
    [](const auto& ti) {
      return std::string(std::get<0>(ti.param) == RoutingMode::kTapestryNative
                             ? "native"
                             : "prrlike") +
             "_r" + std::to_string(std::get<1>(ti.param));
    });

TEST(Join, TablesConvergeToStaticGroundTruth) {
  // §4: "the results of the insertion should be the same as if we had been
  // able to build the network from static data."  Property 2 quality of
  // the grown network should be essentially perfect.
  auto g = grow_ring_network(192, 42);
  const double quality = g.net->property2_quality();
  EXPECT_GT(quality, 0.98) << "grown tables diverge from nearest-neighbor "
                              "ground truth";
}

TEST(Join, NewNodeKnowsItsTrueNearestNeighbor) {
  // The incremental nearest-neighbor algorithm (§3) must find the closest
  // node overall: it is the primary of some level-0 slot.
  auto g = grow_ring_network(128, 43);
  for (const NodeId& id : g.ids) {
    const auto order = nearest_sorted(*g.space, g.net->node(id).location());
    // Find the nearest location that hosts a node.
    NodeId nearest{};
    for (const Location loc : order) {
      bool found = false;
      for (const NodeId& other : g.ids) {
        if (!(other == id) && g.net->node(other).location() == loc) {
          nearest = other;
          found = true;
          break;
        }
      }
      if (found) break;
    }
    ASSERT_TRUE(nearest.valid());
    const auto prim =
        g.net->node(id).table().primary(0, nearest.digit(0));
    ASSERT_TRUE(prim.has_value());
    const double d_prim = g.net->distance(id, *prim);
    const double d_near = g.net->distance(id, nearest);
    // The slot holding the nearest node's first digit must contain a node
    // at distance <= the true nearest (i.e. the nearest itself or a tie).
    EXPECT_LE(d_prim, d_near + 1e-12);
  }
}

TEST(Join, DuplicateIdRejected) {
  auto g = grow_ring_network(16, 44);
  EXPECT_THROW(g.net->join(0, g.ids[3]), CheckError);
}

TEST(Join, JoinOnEmptyNetworkRejected) {
  Rng rng(1);
  RingMetric space(8, rng);
  Network net(space, small_params());
  EXPECT_THROW(net.join(0), CheckError);
}

TEST(Join, SecondBootstrapRejected) {
  Rng rng(1);
  RingMetric space(8, rng);
  Network net(space, small_params());
  net.bootstrap(0);
  EXPECT_THROW(net.bootstrap(1), CheckError);
}

TEST(Join, TinyNetworkGrowsCorrectly) {
  // Exercise the smallest cases: 1 -> 2 -> 3 nodes.
  Rng rng(2);
  RingMetric space(8, rng);
  Network net(space, small_params(), 99);
  const NodeId a = net.bootstrap(0);
  const NodeId b = net.join(1);
  const NodeId c = net.join(2);
  net.check_property1();
  net.check_backpointer_symmetry();
  EXPECT_EQ(net.size(), 3u);
  // All three route consistently.
  const Guid guid = make_guid(net, 55);
  const NodeId root = net.route_to_root(a, guid).root;
  EXPECT_EQ(net.route_to_root(b, guid).root, root);
  EXPECT_EQ(net.route_to_root(c, guid).root, root);
}

TEST(Join, ObjectsPublishedBeforeJoinStayAvailable) {
  Rng rng(3);
  RingMetric space(128, rng);
  Network net(space, small_params(), 7);
  std::vector<NodeId> ids{net.bootstrap(0)};
  for (std::size_t i = 1; i < 32; ++i) ids.push_back(net.join(i));

  std::vector<Guid> guids;
  for (int i = 0; i < 12; ++i) {
    const Guid guid = make_guid(net, 200 + i);
    guids.push_back(guid);
    net.publish(ids[static_cast<std::size_t>(i) % ids.size()], guid);
  }

  // Grow the network by 4x; every object must stay locatable from every
  // node after every single join (deterministic location, Property 1+4).
  for (std::size_t i = 32; i < 128; ++i) {
    ids.push_back(net.join(i));
    for (const Guid& guid : guids) {
      const LocateResult r = net.locate(ids[i % ids.size()], guid);
      ASSERT_TRUE(r.found) << "object lost after join " << i;
    }
  }
  net.check_property4();
}

TEST(Join, RootOwnershipTransfersToNewNode) {
  // If the new node becomes an object's root, the pointer must move to it
  // (LINKANDXFERROOT), otherwise surrogate routing would dead-end.
  Rng rng(4);
  RingMetric space(64, rng);
  TapestryParams p = small_params();
  Network net(space, p, 11);
  std::vector<NodeId> ids{net.bootstrap(0)};
  for (std::size_t i = 1; i < 24; ++i) ids.push_back(net.join(i));

  const Guid guid = make_guid(net, 77);
  net.publish(ids[5], guid);
  const NodeId old_root = net.surrogate_root(guid);

  // Insert a node whose id is one digit closer to the guid than the old
  // root: it must become the new root and hold the pointer.
  NodeId target = guid;
  // Perturb the last digit so the id is not the guid itself (and unused).
  unsigned last = guid.num_digits() - 1;
  NodeId candidate = target.with_digit(last, (guid.digit(last) + 1) % 16);
  if (net.contains(candidate)) GTEST_SKIP() << "improbable id collision";
  net.join(30, candidate);

  const NodeId new_root = net.surrogate_root(guid);
  EXPECT_EQ(new_root, candidate);
  EXPECT_FALSE(new_root == old_root);
  EXPECT_FALSE(net.node(new_root).store().find_all(guid).empty())
      << "root pointer did not transfer";
  // And the object remains locatable from everywhere.
  for (const NodeId& c : ids)
    EXPECT_TRUE(net.locate(c, guid).found);
  net.check_property4();
}

TEST(Join, InsertCostScalesPolylogarithmically) {
  // §4.5: insertion needs O(log^2 n) messages w.h.p.  At small n the cost
  // is dominated by the O(b·R·k) per-level candidate neighborhood, which
  // saturates; in the regime past saturation a 4x increase in n must cost
  // far less than 4x messages ((log 1024 / log 256)^2 = 1.5625x predicted).
  auto measure = [](std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    RingMetric space(n + 8, rng);
    Network net(space, small_params(), seed);
    net.bootstrap(0);
    for (std::size_t i = 1; i < n; ++i) net.join(i);
    Summary msgs;
    for (std::size_t i = 0; i < 8; ++i) {
      Trace t;
      net.join(n + i, std::nullopt, &t);
      msgs.add(static_cast<double>(t.messages()));
    }
    return msgs.mean();
  };
  const double cost256 = measure(256, 50);
  const double cost1024 = measure(1024, 51);
  EXPECT_LT(cost1024, cost256 * 3.0)
      << "insertion cost grows too fast with n (not polylog)";
}

TEST(Join, GatewayChoiceDoesNotAffectOutcomeInvariants) {
  Rng rng(5);
  RingMetric space(64, rng);
  Network net(space, small_params(), 13);
  std::vector<NodeId> ids{net.bootstrap(0)};
  for (std::size_t i = 1; i < 32; ++i) ids.push_back(net.join(i));
  // Join through every possible gateway in turn; invariants hold each time.
  for (std::size_t i = 32; i < 48; ++i) {
    const NodeId gw = ids[(i * 7) % ids.size()];
    ids.push_back(net.join_via(gw, i));
    net.check_property1();
  }
  net.check_backpointer_symmetry();
}

TEST(Join, TraceCountsRealisticCosts) {
  auto g = grow_ring_network(64, 45);
  Trace t;
  g.net->join(64, std::nullopt, &t);
  EXPECT_GT(t.messages(), 0u);
  EXPECT_GT(t.latency(), 0.0);
}

TEST(SerialJoin, TranscriptIsPinned) {
  // The serial insertion transcript, pinned: 48 joins grow a 48-node ring
  // with 32 objects already published, every join's messages booked on
  // one Trace, so the §4.2 reroutes of LINKANDXFERROOT and of the new
  // node's table settling are part of the count.  Serial, threaded and
  // event-driven insertion share each §3-§4.4 step; these constants hold
  // the serial mode to the exact serial choices.  A change that alters
  // insertion traffic on purpose updates them and says so.  Memory store
  // and direct transport are set here, not taken from TAP_STORE /
  // TAP_TRANSPORT.
  TapestryParams p;
  p.id = IdSpec{4, 8};
  p.redundancy = 3;
  p.store_backend = StoreBackend::kMemory;
  p.transport = TransportKind::kDirect;
  auto g = grow_ring_network(48, 97, p);
  for (std::size_t i = 0; i < 32; ++i)
    g.net->publish(g.ids[5 * i % 48], make_guid(*g.net, 700 + i));
  Trace trace;
  for (std::size_t i = 0; i < 48; ++i)
    g.net->join(48 + i, std::nullopt, &trace);

  g.net->check_property1();
  g.net->check_property4();
  EXPECT_EQ(g.net->size(), 96u);
  EXPECT_EQ(fingerprint_tables(*g.net), 15146335567267549962ull);
  EXPECT_EQ(trace.messages(), 7502u);
  EXPECT_EQ(g.net->registry().total_object_pointers(), 116u);
}

TEST(SerialJoin, PartitionedJoinsKeepProperty1) {
  // A join made during a partition routes to a surrogate on its gateway's
  // side, which can share fewer digits with the new node than some node
  // across the cut.  The multicast still reaches every α-node (only
  // routing respects the cut), and its §4.4 watch list has those nodes
  // report fillers for the new node's rows past α, so Property 1 holds
  // once the cut heals.  At radix 2 with R = 1 an adoption evicts a
  // slot's only other member, so each multicast reads its forwarding
  // targets before adopting the new node.
  for (const auto& [id, r] :
       {std::pair{IdSpec{4, 3}, 3u}, std::pair{IdSpec{4, 8}, 3u},
        std::pair{IdSpec{2, 6}, 2u}, std::pair{IdSpec{1, 12}, 1u}}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("radix " + std::to_string(id.radix()) + " digits " +
                   std::to_string(id.num_digits) + " seed " +
                   std::to_string(seed));
      TapestryParams p;
      p.id = id;
      p.redundancy = r;
      p.store_backend = StoreBackend::kMemory;
      p.transport = TransportKind::kDirect;
      auto g = static_ring_network(96, seed, p);
      // Side B: the odd ranks of the sorted ids; gateways: the even ones.
      std::vector<NodeId> sorted = g.ids;
      std::sort(sorted.begin(), sorted.end());
      std::vector<NodeId> side_b;
      for (std::size_t i = 1; i < sorted.size(); i += 2)
        side_b.push_back(sorted[i]);
      Rng rng(seed + 17);
      for (std::size_t i = 0; i < 16; ++i) {
        const NodeId gateway = sorted[2 * rng.next_u64(sorted.size() / 2)];
        g.net->set_partition(side_b);
        const NodeId nn = g.net->join_via(gateway, 96 + i);
        g.net->heal_partition();
        if (!property1_holds(*g.net)) {
          ADD_FAILURE() << "Property 1 broke after joining "
                        << nn.to_string();
          break;
        }
      }
      g.net->check_backpointer_symmetry();
    }
  }
}

}  // namespace
}  // namespace tap
