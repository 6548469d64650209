// Stub-locality optimization (§6.3): intra-stub queries for locally
// replicated objects never cross the transit network; remote objects pay a
// small bounded intra-stub detour.
#include <gtest/gtest.h>

#include "src/tapestry/locality.h"
#include "test_util.h"

namespace tap {
namespace {

using test::make_guid;
using test::small_params;

struct StubWorld {
  std::unique_ptr<TransitStubMetric> space;
  std::unique_ptr<Network> net;
  std::unique_ptr<LocalityManager> locality;
  std::vector<NodeId> ids;
};

StubWorld make_world(std::size_t n, std::uint64_t seed,
                     const TapestryParams& params = small_params()) {
  StubWorld w;
  Rng rng(seed);
  TransitStubParams tsp;
  tsp.transit_scale = 10.0;
  w.space = std::make_unique<TransitStubMetric>(n, rng, tsp);
  w.net = std::make_unique<Network>(*w.space, params, seed ^ 0xfeed);
  w.ids.push_back(w.net->bootstrap(0));
  for (std::size_t i = 1; i < n; ++i) w.ids.push_back(w.net->join(i));
  w.locality = std::make_unique<LocalityManager>(*w.net, *w.space);
  return w;
}

TEST(Locality, RequiresMatchingSpace) {
  Rng rng(1);
  TransitStubMetric ts(32, rng);
  RingMetric ring(32, rng);
  Network net(ring, small_params());
  EXPECT_THROW(LocalityManager(net, ts), CheckError);
}

TEST(Locality, LocalRootIsDeterministicAndLocal) {
  auto w = make_world(128, 2);
  for (int i = 0; i < 20; ++i) {
    const Guid guid = make_guid(*w.net, 50 + i);
    for (std::size_t stub = 0; stub < w.space->num_stubs(); ++stub) {
      const auto members = w.locality->stub_members(stub);
      if (members.empty()) continue;
      const NodeId root = w.locality->local_root(stub, guid);
      EXPECT_EQ(w.locality->stub_of(root), stub);
      EXPECT_EQ(w.locality->local_root(stub, guid), root) << "not stable";
    }
  }
}

TEST(Locality, IntraStubQueryStaysIntraStub) {
  auto w = make_world(192, 3);
  // For each stub: publish an object from a member, query from another
  // member; the query's latency must stay within intra-stub scale.
  int tested = 0;
  for (std::size_t stub = 0; stub < w.space->num_stubs(); ++stub) {
    const auto members = w.locality->stub_members(stub);
    if (members.size() < 2) continue;
    const Guid guid = make_guid(*w.net, 500 + static_cast<int>(stub));
    w.locality->publish(members[0], guid);
    const LocateResult r = w.locality->locate(members[1], guid);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.server, members[0]);
    // Bounded by a few intra-stub trips, far below a transit crossing.
    EXPECT_LE(r.latency, 3.0 * w.space->max_intra_stub_distance());
    ++tested;
  }
  EXPECT_GT(tested, 4);
}

TEST(Locality, PlainTapestryCrossesTransitForComparison) {
  // Without the optimization, a local query may route toward a wide-area
  // root; over many stubs, some query is much more expensive.  (This is
  // the gap E9 quantifies.)
  auto w = make_world(192, 4);
  double worst_plain = 0.0;
  for (std::size_t stub = 0; stub < w.space->num_stubs(); ++stub) {
    const auto members = w.locality->stub_members(stub);
    if (members.size() < 2) continue;
    const Guid guid = make_guid(*w.net, 700 + static_cast<int>(stub));
    w.net->publish(members[0], guid);
    const LocateResult r = w.net->locate(members[1], guid);
    ASSERT_TRUE(r.found);
    worst_plain = std::max(worst_plain, r.latency);
  }
  EXPECT_GT(worst_plain, w.space->max_intra_stub_distance())
      << "expected at least one wide-area detour without the optimization";
}

TEST(Locality, RemoteObjectsStillFound) {
  auto w = make_world(128, 5);
  const auto members0 = w.locality->stub_members(0);
  ASSERT_FALSE(members0.empty());
  // Publish from stub 0, query from a different stub via the local-first
  // path: the local probe misses, the wide-area lookup succeeds.
  const Guid guid = make_guid(*w.net, 31);
  w.locality->publish(members0[0], guid);
  for (std::size_t stub = 1; stub < w.space->num_stubs(); ++stub) {
    const auto members = w.locality->stub_members(stub);
    if (members.empty()) continue;
    const LocateResult r = w.locality->locate(members[0], guid);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.server, members0[0]);
  }
}

TEST(Locality, UnpublishRemovesLocalBranch) {
  auto w = make_world(128, 6);
  const auto members = w.locality->stub_members(2);
  ASSERT_GE(members.size(), 2u);
  const Guid guid = make_guid(*w.net, 32);
  w.locality->publish(members[0], guid);
  w.locality->unpublish(members[0], guid);
  EXPECT_FALSE(w.locality->locate(members[1], guid).found);
  EXPECT_EQ(w.net->total_object_pointers(), 0u);
}

// A server that is its own stub's local root for a name holds that
// branch's record itself, and the global unpublish removes it: the local
// branch books and delivers nothing for that name, as publish sends
// nothing there.
TEST(Locality, OwnRootServerUnpublishSendsNoLocalBranchMessage) {
  auto w = make_world(192, 3);
  NodeId server{};
  Guid guid{};
  for (std::uint64_t raw = 1200; !guid.valid(); ++raw) {
    const Guid g = make_guid(*w.net, raw);
    const NodeId id = w.ids[raw % w.ids.size()];
    if (!(w.locality->local_root(w.locality->stub_of(id), g) == id)) continue;
    server = id;
    guid = g;
  }
  const TransportStats& stats = w.net->transport().stats();
  // (booked, delivered) messages of `body`.
  auto cost = [&](auto&& body) {
    Trace t;
    const std::uint64_t before = stats.messages.load();
    body(&t);
    return std::make_pair(std::uint64_t{t.messages()},
                          stats.messages.load() - before);
  };
  w.locality->publish(server, guid);
  const auto local =
      cost([&](Trace* t) { w.locality->unpublish(server, guid, t); });
  EXPECT_EQ(w.net->total_object_pointers(), 0u);
  w.locality->publish(server, guid);
  const auto global = cost([&](Trace* t) { w.net->unpublish(server, guid, t); });
  EXPECT_EQ(local, global);
}

TEST(Locality, MultipleReplicasPreferLocal) {
  auto w = make_world(192, 7);
  // Same GUID replicated in two stubs; clients in each stub must resolve
  // to their local replica.
  std::vector<std::size_t> stubs_with_two;
  for (std::size_t stub = 0; stub < w.space->num_stubs(); ++stub)
    if (w.locality->stub_members(stub).size() >= 2) stubs_with_two.push_back(stub);
  ASSERT_GE(stubs_with_two.size(), 2u);
  const auto a = w.locality->stub_members(stubs_with_two[0]);
  const auto b = w.locality->stub_members(stubs_with_two[1]);
  const Guid guid = make_guid(*w.net, 33);
  w.locality->publish(a[0], guid);
  w.locality->publish(b[0], guid);
  const LocateResult ra = w.locality->locate(a[1], guid);
  const LocateResult rb = w.locality->locate(b[1], guid);
  ASSERT_TRUE(ra.found);
  ASSERT_TRUE(rb.found);
  EXPECT_EQ(ra.server, a[0]);
  EXPECT_EQ(rb.server, b[0]);
}

TEST(Locality, LocalBranchHopsCrossTheTransport) {
  // Every message the local branch books on the Trace also goes through
  // Transport::deliver: the transport delivers exactly what the Trace
  // books for a publish with its local deposit, a local-hit locate
  // (client -> local root -> replica) and an unpublish with its local
  // removal.  A local miss adds its one hop to both ledgers, and the
  // wide-area locate it falls back to delivers what it books too.  The
  // memory store is set here: the replicated backends' mirror traffic has
  // gaps of its own.
  for (const TransportKind kind :
       {TransportKind::kDirect, TransportKind::kLoopback}) {
    SCOPED_TRACE(transport_kind_name(kind));
    TapestryParams p = small_params();
    p.store_backend = StoreBackend::kMemory;
    p.transport = kind;
    auto w = make_world(96, 8, p);
    const TransportStats& stats = w.net->transport().stats();
    // Delivered minus booked messages of `body`.
    auto ledger_gap = [&](const char* op, auto&& body) {
      Trace t;
      const std::uint64_t before = stats.messages.load();
      body(&t);
      EXPECT_GT(t.messages(), 0u) << op;
      return static_cast<std::int64_t>(stats.messages.load() - before) -
             static_cast<std::int64_t>(t.messages());
    };

    // A stub whose local root for the object is neither the server nor
    // the client, so the deposit and both local-hit hops are real.
    std::size_t stub = 0;
    NodeId server{}, client{};
    Guid guid{};
    for (std::uint64_t raw = 900; !guid.valid(); ++raw) {
      stub = raw % w.space->num_stubs();
      const auto members = w.locality->stub_members(stub);
      if (members.size() < 3) continue;
      const Guid g = make_guid(*w.net, raw);
      const NodeId root = w.locality->local_root(stub, g);
      if (root == members[0]) continue;
      server = members[0];
      client = root == members[1] ? members[2] : members[1];
      guid = g;
    }
    NodeId remote{};
    for (const NodeId& id : w.net->node_ids())
      if (w.locality->stub_of(id) != stub) remote = id;
    ASSERT_TRUE(remote.valid());

    const std::int64_t publish = ledger_gap("publish", [&](Trace* t) {
      w.locality->publish(server, guid, t);
    });
    EXPECT_EQ(publish, 0);
    const std::int64_t local_hit = ledger_gap("local hit", [&](Trace* t) {
      const LocateResult r = w.locality->locate(client, guid, t);
      EXPECT_TRUE(r.found);
      EXPECT_EQ(r.server, server);
      EXPECT_EQ(r.hops, 2u) << "client -> local root -> replica";
    });
    EXPECT_EQ(local_hit, 0);
    const std::int64_t wide = ledger_gap("wide-area locate", [&](Trace* t) {
      EXPECT_TRUE(w.net->locate(remote, guid, t).found);
    });
    EXPECT_EQ(wide, 0);
    const std::int64_t local_miss = ledger_gap("local miss", [&](Trace* t) {
      EXPECT_TRUE(w.locality->locate(remote, guid, t).found);
    });
    EXPECT_EQ(local_miss, wide);
    const std::int64_t unpublish = ledger_gap("unpublish", [&](Trace* t) {
      w.locality->unpublish(server, guid, t);
    });
    EXPECT_EQ(unpublish, 0);
    EXPECT_EQ(w.net->total_object_pointers(), 0u);
  }
}

}  // namespace
}  // namespace tap
