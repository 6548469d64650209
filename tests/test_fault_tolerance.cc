// Fault-tolerance machinery: multi-root retry (Observation 1), backup
// links (R > 1, §2.4), the PRR secondary-search variant, the heartbeat
// sweep, and the store-at-root ablation's contract.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>

#include "src/baselines/root_store.h"
#include "src/common/stats.h"
#include "src/sim/metrics.h"
#include "test_util.h"

namespace tap {
namespace {

using test::grow_ring_network;
using test::make_guid;
using test::small_params;
using test::static_ring_network;

// ----------------------------------------------- Observation 1: retries

TEST(MultiRoot, RetryFindsObjectAfterRootFailure) {
  TapestryParams p = small_params();
  p.root_multiplicity = 3;
  p.retry_all_roots = true;
  auto g = grow_ring_network(128, 140, p);
  const Guid guid = make_guid(*g.net, 1);
  g.net->publish(g.ids[7], guid);

  // Fail the salt-0 root; queries drawing that root must fail over to the
  // other salted names without any republish.
  const NodeId root0 = g.net->surrogate_root(salted_guid(guid, 0));
  if (root0 == g.ids[7]) GTEST_SKIP() << "server happens to be root";
  g.net->fail(root0);
  std::size_t found = 0, total = 0;
  for (const NodeId& c : g.net->node_ids()) {
    ++total;
    if (g.net->locate(c, guid).found) ++found;
  }
  EXPECT_EQ(found, total) << "retry over the root set must mask the failure";
}

TEST(MultiRoot, WithoutRetrySomeQueriesMissAfterRootFailure) {
  TapestryParams p = small_params();
  // This measures the base miss behaviour after a root death; the
  // replicated backend would mask the dead root via quorum reads, so pin
  // the reference store regardless of the TAP_STORE matrix leg.
  p.store_backend = StoreBackend::kMemory;
  p.store_dir.clear();
  p.root_multiplicity = 3;
  p.retry_all_roots = false;  // single random root per query (base behaviour)
  auto g = grow_ring_network(128, 141, p);
  const Guid guid = make_guid(*g.net, 2);
  g.net->publish(g.ids[9], guid);
  const NodeId root0 = g.net->surrogate_root(salted_guid(guid, 0));
  if (root0 == g.ids[9]) GTEST_SKIP() << "server happens to be root";
  g.net->fail(root0);
  std::size_t misses = 0;
  for (int q = 0; q < 200; ++q) {
    const auto ids = g.net->node_ids();
    if (!g.net->locate(ids[static_cast<std::size_t>(q) % ids.size()], guid)
             .found)
      ++misses;
  }
  // Roughly a third of queries draw the dead root and miss.
  EXPECT_GT(misses, 20u);
}

TEST(MultiRoot, RetryCostBoundedByRootCount) {
  TapestryParams p = small_params();
  p.root_multiplicity = 4;
  p.retry_all_roots = true;
  auto g = static_ring_network(128, 142, p);
  const Guid guid = make_guid(*g.net, 3);
  // Query for a *nonexistent* object pays all four attempts, no more.
  Trace t;
  const LocateResult r = g.net->locate(g.ids[0], guid, &t);
  EXPECT_FALSE(r.found);
  EXPECT_GT(t.messages(), 0u);
  // Each attempt is O(log n) hops; four attempts stay well under 8*digits.
  EXPECT_LE(t.messages(), 4u * g.net->params().id.num_digits * 2u);
}

TEST(MultiRoot, AllRootsHoldPointersIndependently) {
  TapestryParams p = small_params();
  p.root_multiplicity = 4;
  auto g = static_ring_network(128, 143, p);
  const Guid guid = make_guid(*g.net, 4);
  g.net->publish(g.ids[11], guid);
  std::set<std::uint64_t> roots;
  for (unsigned salt = 0; salt < 4; ++salt) {
    const NodeId root = g.net->surrogate_root(salted_guid(guid, salt));
    roots.insert(root.value());
    EXPECT_FALSE(
        g.net->node(root).store().find_all(salted_guid(guid, salt)).empty());
  }
  // Salted names are independent, so the roots are (almost surely) distinct.
  EXPECT_GE(roots.size(), 3u);
}

// ------------------------------------------------- backup links (R > 1)

TEST(BackupLinks, SecondaryTakesOverInstantlyOnPrimaryDeath) {
  auto g = static_ring_network(128, 144);  // R = 3
  // Find a slot with at least two live members; kill the primary and
  // verify a single route step fails over without a replacement search
  // (the repair prunes the corpse and promotes the stored secondary).
  for (const NodeId& id : g.ids) {
    const auto& table = g.net->node(id).table();
    for (unsigned j = 0; j < 16; ++j) {
      const auto& set = table.at(0, j);
      if (set.size() < 2) continue;
      const NodeId primary = *set.primary();
      if (primary == id || !g.net->contains(primary)) continue;
      const NodeId secondary = set.entries()[1].id;
      if (!g.net->contains(secondary)) continue;
      g.net->fail(primary);
      // Route a guid whose first digit is j from this node: the step must
      // reach the promoted secondary (or another live member).
      Guid guid = make_guid(*g.net, 900).with_digit(0, j);
      const RouteResult rr = g.net->route_to_root(id, guid);
      ASSERT_GE(rr.path.size(), 2u);
      EXPECT_FALSE(rr.path[1] == primary);
      EXPECT_TRUE(g.net->contains(rr.path[1]));
      // The slot no longer lists the corpse.
      EXPECT_FALSE(g.net->node(id).table().at(0, j).contains(primary));
      return;  // one scenario suffices; the loop guards against misses
    }
  }
  FAIL() << "no testable slot found";
}

TEST(BackupLinks, RedundancyOneStillRoutesViaReplacementSearch) {
  TapestryParams p = small_params();
  p.redundancy = 1;
  auto g = grow_ring_network(96, 145, p);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    auto ids = g.net->node_ids();
    g.net->fail(ids[rng.next_u64(ids.size())]);
  }
  // The grown tables hold Property 1 (joins leave no hole at R = 1).  With
  // no backups, a corpse is the only member of each slot it fills, so
  // roots can diverge until a heartbeat sweep purges every corpse; each
  // purge refills the slots it empties through the complete replacement
  // search, which restores consistency.
  g.net->heartbeat_sweep();
  for (int obj = 0; obj < 20; ++obj) {
    const Guid guid = make_guid(*g.net, 700 + obj);
    std::set<std::uint64_t> roots;
    for (const NodeId& src : g.net->node_ids())
      roots.insert(g.net->route_to_root(src, guid).root.value());
    EXPECT_EQ(roots.size(), 1u);
  }
}

// ---------------------------------------------- PRR secondary search

TEST(SecondarySearch, FindsSameObjectsAsBase) {
  TapestryParams p = small_params();
  p.prr_secondary_search = true;
  auto g = static_ring_network(128, 146, p);
  Rng rng(2);
  for (int i = 0; i < 15; ++i) {
    const Guid guid = make_guid(*g.net, 300 + i);
    g.net->publish(g.ids[rng.next_u64(g.ids.size())], guid);
    for (std::size_t c = 0; c < g.ids.size(); c += 9)
      EXPECT_TRUE(g.net->locate(g.ids[c], guid).found);
  }
}

TEST(SecondarySearch, NeverWorseStretchOnAverageCostsMoreMessages) {
  auto base = static_ring_network(256, 147, small_params());
  TapestryParams p = small_params();
  p.prr_secondary_search = true;
  auto prr = static_ring_network(256, 147, p);
  ASSERT_EQ(base.ids, prr.ids);

  Rng wl(3);
  Summary base_lat, prr_lat, base_msgs, prr_msgs;
  for (int q = 0; q < 150; ++q) {
    const Guid guid = make_guid(*base.net, 500 + q);
    const std::size_t si = wl.next_u64(base.ids.size());
    base.net->publish(base.ids[si], guid);
    prr.net->publish(prr.ids[si], guid);
    const std::size_t ci = (si + 1) % base.ids.size();  // nearby client
    Trace tb, tp;
    const LocateResult rb = base.net->locate(base.ids[ci], guid, &tb);
    const LocateResult rp = prr.net->locate(prr.ids[ci], guid, &tp);
    ASSERT_TRUE(rb.found && rp.found);
    base_lat.add(rb.latency);
    prr_lat.add(rp.latency);
    base_msgs.add(double(tb.messages()));
    prr_msgs.add(double(tp.messages()));
  }
  // The empirical §2.4 finding (see bench_ablation): with R-closest
  // tables the query's primaries are already on the publish path, so the
  // PRR machinery buys little and costs probe latency — bounded, though.
  EXPECT_LE(prr_lat.mean(), base_lat.mean() * 3.0)
      << "secondary probes should stay within local-neighborhood cost";
  EXPECT_GT(prr_msgs.mean(), base_msgs.mean())
      << "secondary probes and deposits must show up in message counts";
}

// -------------------------------------------------- heartbeat sweep

TEST(Heartbeat, PurgesEveryCorpseReference) {
  auto g = grow_ring_network(96, 148);
  Rng rng(4);
  std::vector<NodeId> survivors = g.net->node_ids();
  std::vector<NodeId> dead;
  for (int i = 0; i < 12; ++i) {
    const std::size_t k = rng.next_u64(survivors.size());
    dead.push_back(survivors[k]);
    survivors.erase(survivors.begin() + static_cast<std::ptrdiff_t>(k));
  }
  // Objects on survivors, published before the fail-stops: each purge
  // re-routes the pointers whose next hop it moved (§4.2), so the sweep
  // leaves them locatable with no republish.
  std::vector<Guid> guids;
  for (std::uint64_t i = 0; i < 10; ++i) {
    guids.push_back(make_guid(*g.net, 8600 + i));
    g.net->publish(survivors[i], guids.back());
  }
  for (const NodeId& v : dead) g.net->fail(v);
  // Only a corpse is probed: one unanswered probe per distinct
  // (live node, corpse) link.  Live neighbors push their heartbeats.
  std::size_t corpse_links = 0;
  for (const NodeId& id : g.net->node_ids())
    for (const NodeId& nbr : g.net->node(id).table().all_neighbors())
      if (!g.net->registry().is_live(nbr)) ++corpse_links;
  ASSERT_GT(corpse_links, 0u);
  const TransportStats& stats = g.net->transport().stats();
  const std::uint64_t probes = stats.kind_count(MessageKind::kHeartbeatProbe);
  const std::uint64_t sweeps = metrics::heartbeat_sweeps_total().value();
  g.net->heartbeat_sweep();
  EXPECT_EQ(metrics::heartbeat_sweeps_total().value() - sweeps, 1u);
  EXPECT_EQ(stats.kind_count(MessageKind::kHeartbeatProbe) - probes,
            corpse_links);
  for (const NodeId& id : g.net->node_ids()) {
    const auto& table = g.net->node(id).table();
    for (unsigned l = 0; l < g.net->params().id.num_digits; ++l)
      for (unsigned j = 0; j < 16; ++j)
        for (const auto& e : table.at(l, j).entries())
          for (const NodeId& corpse : dead)
            EXPECT_FALSE(e.id == corpse)
                << id.to_string() << " still references a corpse";
  }
  g.net->check_property1();
  g.net->check_backpointer_symmetry();
  test::expect_no_pins(*g.net);
  Rng ql(88);
  for (const Guid& guid : guids)
    EXPECT_TRUE(
        g.net->locate(survivors[ql.next_u64(survivors.size())], guid).found)
        << "object lost in the sweep: " << guid.to_string();
}

// Records every heartbeat push that lands on a corpse, then delivers
// through the network's own transport.
class CorpsePushRecorder final : public Transport {
 public:
  explicit CorpsePushRecorder(Network& net)
      : net_(net), inner_(net.transport()) {
    net_.maintenance().bind_transport(this);
  }
  ~CorpsePushRecorder() override {
    net_.maintenance().bind_transport(&inner_);
  }
  [[nodiscard]] const char* name() const override { return "recorder"; }
  [[nodiscard]] Message deliver(const Message& m) override {
    if (m.kind == MessageKind::kHeartbeatAck &&
        !net_.registry().is_live(m.dst))
      ++pushes[{m.src.value(), m.dst.value()}];
    return inner_.deliver(m);
  }
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> pushes;

 private:
  Network& net_;
  Transport& inner_;
};

TEST(Heartbeat, PushesReachEveryBackpointerHolder) {
  // A live node pushes its heartbeat to each distinct backpointer holder,
  // corpses included: a corpse that linked to it is still among its
  // holders.  Nobody receives a push to a corpse, so the pusher drops
  // its backpointers to it.  The first sweep after the fail-stops pushes
  // once to each (live node, corpse) pair; the second pushes to no corpse
  // and delivers exactly what it books.
  auto g = grow_ring_network(96, 151);
  Rng rng(5);
  for (int i = 0; i < 12; ++i) {
    const auto ids = g.net->node_ids();
    g.net->fail(ids[rng.next_u64(ids.size())]);
  }
  auto corpse_holders = [&] {
    std::set<std::pair<std::uint64_t, std::uint64_t>> pairs;
    for (const NodeId& id : g.net->node_ids())
      for (const NodeId& h : g.net->node(id).table().all_backpointers())
        if (!g.net->registry().is_live(h))
          pairs.emplace(id.value(), h.value());
    return pairs;
  };
  const auto pairs = corpse_holders();
  ASSERT_FALSE(pairs.empty()) << "no backpointer to a corpse";

  CorpsePushRecorder recorder(*g.net);
  g.net->heartbeat_sweep();
  ASSERT_EQ(recorder.pushes.size(), pairs.size());
  for (const auto& [pair, count] : recorder.pushes) {
    EXPECT_EQ(pairs.count(pair), 1u);
    EXPECT_EQ(count, 1u);
  }
  EXPECT_TRUE(corpse_holders().empty());

  // Every holder left is live, and each live node pushes once to each.
  std::size_t to_live = 0;
  for (const NodeId& id : g.net->node_ids())
    to_live += g.net->node(id).table().all_backpointers().size();
  ASSERT_GT(to_live, 0u);
  const TransportStats& stats = g.net->transport().stats();
  const std::uint64_t pushes = stats.kind_count(MessageKind::kHeartbeatAck);
  const std::uint64_t probes = stats.kind_count(MessageKind::kHeartbeatProbe);
  const std::uint64_t delivered = stats.messages.load();
  const std::uint64_t booked = metrics::messages_total().value();
  recorder.pushes.clear();
  Trace t;
  g.net->heartbeat_sweep(&t);
  EXPECT_TRUE(recorder.pushes.empty()) << "a corpse heard a second push";
  EXPECT_EQ(stats.kind_count(MessageKind::kHeartbeatAck) - pushes, to_live);
  EXPECT_EQ(stats.kind_count(MessageKind::kHeartbeatProbe), probes);
  EXPECT_EQ(t.messages(), to_live);
  EXPECT_EQ(stats.messages.load() - delivered, t.messages());
  EXPECT_EQ(metrics::messages_total().value() - booked, t.messages());
}

TEST(Heartbeat, SweepServesEachPairPresentAtItsStart) {
  // After fail-stops, one serial sweep delivers one push per distinct
  // (node, backpointer holder) pair and one probe per distinct (live
  // node, dead member) pair present when it starts.  A replacement a purge
  // links mid-sweep is heard from at the next sweep, and a corpse a
  // reroute's lazy repair already purged is not probed again.
  for (const bool grown : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE((grown ? "grown seed " : "static seed ") +
                   std::to_string(seed));
      auto g = test::fail_stopped_ring(grown, seed, small_params());
      const test::SweepPairs want = test::sweep_pairs(*g.net);
      ASSERT_GT(want.probes, 0u);
      const TransportStats& ts = g.net->transport().stats();
      const std::uint64_t pushes = ts.kind_count(MessageKind::kHeartbeatAck);
      const std::uint64_t probes = ts.kind_count(MessageKind::kHeartbeatProbe);
      g.net->heartbeat_sweep();
      EXPECT_EQ(ts.kind_count(MessageKind::kHeartbeatAck) - pushes,
                want.pushes);
      EXPECT_EQ(ts.kind_count(MessageKind::kHeartbeatProbe) - probes,
                want.probes);
      g.net->check_property1();
      g.net->check_backpointer_symmetry();
    }
  }
}

TEST(Heartbeat, IdempotentOnHealthyNetwork) {
  auto g = grow_ring_network(64, 149);
  Trace first, second;
  g.net->heartbeat_sweep(&first);
  g.net->heartbeat_sweep(&second);
  // Probes cost the same each round; no repair traffic on a healthy net.
  EXPECT_EQ(first.messages(), second.messages());
  g.net->check_property1();
}

TEST(Heartbeat, CountsProbeTraffic) {
  auto g = grow_ring_network(48, 150);
  const TransportStats& stats = g.net->transport().stats();
  const std::uint64_t probes = stats.kind_count(MessageKind::kHeartbeatProbe);
  const std::uint64_t acks = stats.kind_count(MessageKind::kHeartbeatAck);
  const std::uint64_t forwards =
      stats.kind_count(MessageKind::kMulticastForward);
  const std::uint64_t delivered = stats.messages.load();
  const std::uint64_t tables = fingerprint_tables(*g.net);
  Trace t;
  g.net->heartbeat_sweep(&t);
  // On a healthy overlay a sweep is one pushed heartbeat per distinct
  // neighbor of each node, however many slots the neighbor occupies, no
  // probe (nobody stays silent) and no replacement search: Property 1
  // leaves no fillable hole, so no table changes.  The Trace and the
  // transport count the same messages.
  EXPECT_EQ(fingerprint_tables(*g.net), tables);
  std::size_t neighbors = 0;
  for (const NodeId& id : g.net->node_ids())
    neighbors += g.net->node(id).table().all_neighbors().size();
  EXPECT_EQ(t.messages(), neighbors);
  EXPECT_EQ(stats.messages.load() - delivered, t.messages());
  EXPECT_EQ(stats.kind_count(MessageKind::kHeartbeatProbe), probes);
  EXPECT_EQ(stats.kind_count(MessageKind::kHeartbeatAck) - acks, neighbors);
  EXPECT_EQ(stats.kind_count(MessageKind::kMulticastForward), forwards);
}

TEST(Heartbeat, WideIdHoleIsRefilled) {
  // 64-bit ids.  Node a's level-14 digit-1 class is empty; b's is not, and
  // only c fits it.  Both classes sit 56 bits deep, so a search memo keyed
  // on fewer bits than the whole prefix would conflate them and leave b's
  // hole open.
  TapestryParams p;
  p.id = IdSpec{4, 16};
  p.redundancy = 3;
  p.store_backend = StoreBackend::kMemory;
  p.transport = TransportKind::kDirect;
  Rng rng(19);
  RingMetric space(8, rng);
  Network net(space, p, 19);
  const NodeId a(p.id, 0x1000000000000000ull);
  const NodeId b(p.id, 0x2000000000000000ull);
  const NodeId c(p.id, 0x2000000000000010ull);
  net.bootstrap(0, a);
  net.join(1, b);
  net.join(2, c);
  tap::unlink(net.registry(), net.node(b), 14, c);
  ASSERT_TRUE(net.node(b).table().slot_empty(14, 1));
  net.heartbeat_sweep();
  EXPECT_NO_THROW(net.check_property1());
  EXPECT_TRUE(net.node(b).table().at(14, 1).contains(c));
}

// ------------------------------------------------ store-at-root ablation

TEST(RootStore, ContractPublishLocate) {
  Rng rng(5);
  RingMetric space(96, rng);
  RootStoreOverlay scheme(space, small_params(), 151);
  for (Location i = 0; i < 96; ++i) scheme.add_node(i, nullptr);
  scheme.finalize();
  Rng wl(6);
  for (std::uint64_t key = 0; key < 10; ++key) {
    const auto server = wl.next_u64(96);
    scheme.publish(server, key, nullptr);
    for (std::size_t client = 0; client < 96; client += 11) {
      const SchemeLocate r = scheme.locate(client, key, nullptr);
      ASSERT_TRUE(r.found);
      EXPECT_EQ(r.server, server);
    }
  }
  EXPECT_FALSE(scheme.locate(0, 999999, nullptr).found);
}

TEST(RootStore, PaysRootTripForNearbyObjects) {
  Rng rng(7);
  RingMetric space(256, rng);
  RootStoreOverlay root_scheme(space, small_params(), 152);
  for (Location i = 0; i < 256; ++i) root_scheme.add_node(i, nullptr);
  root_scheme.finalize();

  // Tapestry on the same space/params for contrast.
  auto tap_net = std::make_unique<Network>(space, small_params(), 152);
  for (Location i = 0; i < 256; ++i) tap_net->insert_static(i);
  tap_net->rebuild_static_tables();

  Rng wl(8);
  Summary tap_stretch, root_stretch;
  for (int q = 0; q < 100; ++q) {
    const std::uint64_t key = 600 + q;
    const std::size_t server = wl.next_u64(256);
    const std::size_t client = (server + 1) % 256;  // adjacent pair
    root_scheme.publish(server, key, nullptr);
    const auto ids = tap_net->node_ids();
    (void)ids;
    const SchemeLocate rr = root_scheme.locate(client, key, nullptr);
    ASSERT_TRUE(rr.found);
    const double direct = space.distance(client, server);
    if (direct > 1e-9) root_stretch.add(rr.latency / direct);
  }
  // Without pointer trails, nearby objects cost root-trip latency: the
  // stretch for adjacent pairs is enormous.
  EXPECT_GT(root_stretch.mean(), 20.0)
      << "store-at-root should lose the nearby-object advantage (§6.1)";
}

}  // namespace
}  // namespace tap
