// Seam tests for the layered subsystems behind the Network facade:
// Router's pure peek vs the mutating repair walk, NodeRegistry's
// liveness/index bookkeeping across join, leave and fail, its message
// counter against the Trace ledger, and the synchronous vs event-driven
// directory engines run on twin overlays.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/sim/metrics.h"
#include "src/tapestry/locality.h"
#include "src/tapestry/parallel_join.h"
#include "src/tapestry/replicated_store.h"
#include "tests/test_util.h"

namespace tap {
namespace {

using test::grow_ring_network;
using test::make_guid;
using test::small_params;
using test::static_ring_network;

// On a static (fully repaired, all-live) network the non-mutating
// route_step_peek must take exactly the hops the mutating route_step
// takes, for both routing variants, and neither may touch a table.
TEST(RouterSeam, PeekAgreesWithMutatingStepOnStaticNetwork) {
  for (const RoutingMode mode :
       {RoutingMode::kTapestryNative, RoutingMode::kPrrLike}) {
    auto g = static_ring_network(96, 7, small_params(mode));
    Rng rng(99);
    for (int q = 0; q < 64; ++q) {
      const Guid target = make_guid(*g.net, 0x1000 + q);
      const NodeId from = g.ids[rng.next_u64(g.ids.size())];

      RouteState peek_state;
      std::vector<NodeId> peek_path{from};
      NodeId cur = from;
      while (auto next = g.net->route_step_peek(cur, target, peek_state)) {
        peek_path.push_back(*next);
        cur = *next;
      }

      const std::size_t entries_before = g.net->total_table_entries();
      RouteState walk_state;
      std::vector<NodeId> walk_path{from};
      TapestryNode* at = &g.net->node(from);
      for (;;) {
        auto next =
            g.net->router().route_step(*at, target, walk_state, nullptr);
        if (!next.has_value()) break;
        walk_path.push_back(*next);
        at = &g.net->node(*next);
      }

      EXPECT_EQ(peek_path, walk_path) << "mode " << static_cast<int>(mode);
      EXPECT_EQ(g.net->total_table_entries(), entries_before)
          << "route_step mutated tables on an all-live network";
      EXPECT_EQ(g.net->surrogate_root(target), walk_path.back());
    }
  }
}

// The peek must also agree with the repaired walk after failures: run the
// mutating walk first (repairing en route), then check the peek retraces it.
TEST(RouterSeam, PeekMatchesWalkAfterLazyRepair) {
  auto g = grow_ring_network(80, 11);
  Rng rng(5);
  // Fail a handful of nodes, then let a sweep repair the mesh.
  for (int i = 0; i < 8; ++i) {
    const auto ids = g.net->node_ids();
    g.net->fail(ids[rng.next_u64(ids.size())]);
  }
  g.net->heartbeat_sweep();
  for (int q = 0; q < 32; ++q) {
    const Guid target = make_guid(*g.net, 0x9000 + q);
    const NodeId from = g.net->node_ids()[0];
    const RouteResult walked = g.net->route_to_root(from, target);
    RouteState peek_state;
    NodeId cur = from;
    while (auto next = g.net->route_step_peek(cur, target, peek_state))
      cur = *next;
    EXPECT_EQ(cur, walked.root);
  }
}

TEST(RegistrySeam, JoinLeaveFailKeepLivenessAndIndexConsistent) {
  auto g = grow_ring_network(48, 21);
  NodeRegistry& reg = g.net->registry();

  const std::size_t initial = reg.live_count();
  ASSERT_EQ(initial, 48u);
  ASSERT_EQ(g.net->size(), initial);

  // Every registered id must resolve through the index to a node carrying
  // that id, and node_ids() must agree with the alive flags.
  auto check_index = [&]() {
    std::size_t alive = 0;
    for (const auto& n : reg.nodes()) {
      const TapestryNode* found = reg.find(n->id());
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(found, n.get()) << "index resolves to the wrong node";
      if (n->alive) ++alive;
    }
    EXPECT_EQ(alive, reg.live_count());
    const auto ids = reg.node_ids();
    EXPECT_EQ(ids.size(), reg.live_count());
    for (const NodeId& id : ids) EXPECT_TRUE(reg.is_live(id));
  };
  check_index();

  // Leave: the node stays indexed as a tombstone but drops out of the live
  // view; live() rejects it, checked() still resolves it.
  const NodeId leaver = g.ids[3];
  g.net->leave(leaver);
  EXPECT_FALSE(reg.is_live(leaver));
  EXPECT_FALSE(g.net->contains(leaver));
  EXPECT_EQ(reg.live_count(), initial - 1);
  EXPECT_NO_THROW((void)reg.checked(leaver));
  EXPECT_THROW((void)reg.live(leaver), CheckError);
  check_index();

  // Fail: same bookkeeping, tombstone keeps its table for lazy repair.
  const NodeId victim = g.ids[7];
  const std::size_t victim_links = g.net->node(victim).table().total_entries();
  g.net->fail(victim);
  EXPECT_FALSE(reg.is_live(victim));
  EXPECT_EQ(reg.live_count(), initial - 2);
  EXPECT_EQ(g.net->node(victim).table().total_entries(), victim_links);
  EXPECT_THROW(g.net->fail(victim), CheckError);  // double-fail rejected
  check_index();

  // Join after churn: fresh node is live, indexed, and unique.
  const NodeId joined = g.net->join(50);
  EXPECT_TRUE(reg.is_live(joined));
  EXPECT_EQ(reg.live_count(), initial - 1);
  EXPECT_THROW(reg.register_node(joined, 51), CheckError);  // duplicate id
  check_index();

  // Dead ids never appear in node_ids().
  const auto ids = reg.node_ids();
  EXPECT_EQ(std::find(ids.begin(), ids.end(), leaver), ids.end());
  EXPECT_EQ(std::find(ids.begin(), ids.end(), victim), ids.end());
}

TEST(RegistrySeam, LiveIdsKeepRegistrationOrder) {
  // The live-id list that seeded draws index must be nodes() filtered by
  // `alive`, in the same order, through every kind of membership change.
  Rng rng(27);
  RingMetric space(128, rng);
  Network net(space, small_params(), 27);
  std::vector<Location> locs(48);
  for (Location i = 0; i < 48; ++i) locs[i] = i;
  const std::vector<NodeId> bulk = net.insert_static_bulk(locs, 2);
  net.rebuild_static_tables();
  const NodeRegistry& reg = net.registry();
  auto expect_live_order = [&](const char* step) {
    std::vector<NodeId> alive;
    for (const auto& n : reg.nodes())
      if (n->alive) alive.push_back(n->id());
    EXPECT_EQ(reg.live_ids(), alive) << step;
    EXPECT_EQ(net.node_ids(), alive) << step;
  };
  expect_live_order("register_bulk");

  for (Location loc = 48; loc < 56; ++loc) (void)net.join(loc);
  expect_live_order("single joins");

  net.fail(bulk[0]);
  net.fail(bulk[47]);
  net.leave(bulk[20]);
  const NodeId last_join = net.live_ids().back();
  net.fail(last_join);
  expect_live_order("fails and a leave");

  std::vector<JoinRequest> wave;
  for (Location loc = 56; loc < 72; ++loc) wave.push_back({loc});
  (void)net.join_bulk(wave, 2);
  expect_live_order("join_bulk wave");
  EXPECT_EQ(reg.live_ids().size(), reg.live_count());
}

TEST(RegistrySeam, FreshNodeIdAvoidsTombstones) {
  auto g = grow_ring_network(16, 31);
  NodeRegistry& reg = g.net->registry();
  g.net->fail(g.ids[1]);
  std::unordered_set<std::uint64_t> taken;
  for (const auto& n : reg.nodes()) taken.insert(n->id().value());
  for (int i = 0; i < 256; ++i)
    EXPECT_EQ(taken.count(reg.fresh_node_id().value()), 0u);
}

// NodeRegistry::acct is the Trace ledger's one booking point, so every
// operation moves tapestry_messages_total by exactly what it books on its
// Trace: joins (serial, wave, coordinator), the sweep's repair searches,
// leave's replacement searches, table rebuilds (a multicast), the
// directory and the locality layer's local branch.
TEST(RegistrySeam, MessageCounterEqualsTraceLedger) {
  Rng rng(23);
  TransitStubMetric space(128, rng);
  Network net(space, small_params(), 0x1ed6e7);
  std::vector<NodeId> ids{net.bootstrap(0)};
  for (Location loc = 1; loc < 96; ++loc) ids.push_back(net.join(loc));
  LocalityManager locality(net, space);
  const metrics::Counter& counter = metrics::messages_total();
  Location spare = 96;

  auto expect_booked = [&](const char* op, auto&& run) {
    Trace trace;
    const std::uint64_t before = counter.value();
    run(&trace);
    EXPECT_GT(trace.messages(), 0u) << op;
    EXPECT_EQ(counter.value() - before, trace.messages()) << op;
  };
  expect_booked("join_via", [&](Trace* t) {
    (void)net.join_via(ids[1], spare++, std::nullopt, t);
  });
  expect_booked("join_bulk", [&](Trace* t) {
    std::vector<JoinRequest> batch;
    for (int i = 0; i < 4; ++i) batch.push_back(JoinRequest{spare++});
    (void)net.join_bulk(batch, 2, t);
  });
  {
    ParallelJoinCoordinator coord(net, 0.05);
    std::vector<ParallelJoinCoordinator::Request> batch;
    for (std::size_t i = 0; i < 6; ++i) {
      ParallelJoinCoordinator::Request r;
      r.loc = spare++;
      r.gateway = ids[2 + i];
      r.start_time = net.now() + 0.1 * static_cast<double>(i);
      batch.push_back(r);
    }
    const std::uint64_t before = counter.value();
    std::size_t booked = 0;
    for (const auto& out : coord.run(batch)) booked += out.messages;
    EXPECT_GT(booked, 0u);
    EXPECT_EQ(counter.value() - before, booked) << "coordinator";
  }
  for (std::size_t i = 10; i < 13; ++i) net.fail(ids[i]);
  expect_booked("heartbeat_sweep",
                [&](Trace* t) { net.heartbeat_sweep(t); });
  expect_booked("leave", [&](Trace* t) {
    for (std::size_t i = 20; i < 26; ++i) net.leave(ids[i], t);
  });
  expect_booked("rebuild_neighbor_table",
                [&](Trace* t) { net.rebuild_neighbor_table(ids[30], t); });
  const Guid guid = make_guid(net, 0x1ed6);
  expect_booked("publish", [&](Trace* t) { net.publish(ids[40], guid, t); });
  expect_booked("locate",
                [&](Trace* t) { (void)net.locate(ids[50], guid, t); });
  const Guid local = make_guid(net, 0x10ca1);
  const NodeId server = ids[60];
  expect_booked("locality publish",
                [&](Trace* t) { locality.publish(server, local, t); });
  for (const NodeId& client : locality.stub_members(locality.stub_of(server)))
    if (!(client == server))
      expect_booked("locality locate",
                    [&](Trace* t) { (void)locality.locate(client, local, t); });
}

// The facade and the subsystems must expose the same objects: mutating via
// a subsystem is visible through the facade (no hidden copies).
TEST(FacadeSeam, SubsystemsShareStateWithFacade) {
  auto g = grow_ring_network(32, 17);
  const Guid guid = make_guid(*g.net, 0xfeed);
  g.net->directory().publish(g.ids[0], guid);
  const auto servers = g.net->servers_of(guid);
  ASSERT_EQ(servers.size(), 1u);
  EXPECT_EQ(servers[0], g.ids[0]);
  const LocateResult r = g.net->locate(g.ids[5], guid);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.server, g.ids[0]);
  g.net->directory().unpublish(g.ids[0], guid);
  EXPECT_TRUE(g.net->servers_of(guid).empty());
}

// ------------------------------------------------------------ engine twins
//
// The synchronous engine (publish/locate) and the event engine
// (publish_async/locate_async, drained one operation at a time) must be
// the same machine: on twin overlays built from one seed, with no other
// event interleaving, every result, every message and every store write
// agrees.  One overlay per engine, because quorum reads, read repair and
// cache fills by one engine would change what the other sees.

struct TwinConfig {
  std::size_t cache = 0;
  bool secondary = false;
  RoutingMode routing = RoutingMode::kTapestryNative;
  bool replicated = false;  // + kill object roots so quorum reads run
};

std::string describe(const TwinConfig& c) {
  return "cache=" + std::to_string(c.cache) +
         " secondary=" + std::to_string(c.secondary) + " routing=" +
         (c.routing == RoutingMode::kPrrLike ? "prr" : "native") +
         (c.replicated ? " store=replicated" : " store=default");
}

TapestryParams twin_params(const TwinConfig& c) {
  // One small_params() call per twin: the disk-backed TAP_STORE legs hand
  // each call a fresh store directory.
  TapestryParams p = small_params(c.routing);
  p.locate_cache_size = c.cache;
  p.prr_secondary_search = c.secondary;
  if (c.replicated) p.store_backend = StoreBackend::kReplicated;
  return p;
}

using KindCounts = std::array<std::uint64_t, kWireKindCount + 1>;

KindCounts transport_counts(const Network& net) {
  KindCounts out{};
  const TransportStats& s = net.transport().stats();
  for (std::size_t k = 0; k < kWireKindCount; ++k)
    out[k] = s.kind_count(static_cast<MessageKind>(k));
  out[kWireKindCount] = s.bytes.load();
  return out;
}

KindCounts delta(const KindCounts& after, const KindCounts& before) {
  KindCounts d{};
  for (std::size_t k = 0; k < d.size(); ++k) d[k] = after[k] - before[k];
  return d;
}

void expect_same_stores(Network& a, Network& b, const std::string& what) {
  for (const NodeId& id : a.node_ids()) {
    auto sa = a.node(id).store().snapshot();
    auto sb = b.node(id).store().snapshot();
    ASSERT_EQ(sa.size(), sb.size()) << what << " node " << id.to_string();
    auto key = [](const std::pair<Guid, PointerRecord>& e) {
      return std::make_pair(e.first.value(), e.second.server.value());
    };
    auto by_key = [&](const auto& x, const auto& y) { return key(x) < key(y); };
    std::sort(sa.begin(), sa.end(), by_key);
    std::sort(sb.begin(), sb.end(), by_key);
    for (std::size_t i = 0; i < sa.size(); ++i) {
      const PointerRecord& ra = sa[i].second;
      const PointerRecord& rb = sb[i].second;
      EXPECT_EQ(sa[i].first, sb[i].first) << what;
      EXPECT_EQ(ra.server, rb.server) << what;
      EXPECT_EQ(ra.last_hop, rb.last_hop) << what;
      EXPECT_EQ(ra.level, rb.level) << what;
      EXPECT_EQ(ra.past_hole, rb.past_hole) << what;
      EXPECT_EQ(ra.expires_at, rb.expires_at) << what;
    }
  }
}

LocateResult drain_locate_async(Network& net, const NodeId& client,
                                const Guid& guid) {
  std::optional<LocateResult> out;
  net.locate_async(client, guid, [&](const LocateResult& r) { out = r; });
  net.events().run();
  EXPECT_TRUE(out.has_value());
  return out.value_or(LocateResult{});
}

void expect_same_result(const LocateResult& s, const LocateResult& e,
                        const std::string& what) {
  EXPECT_EQ(s.found, e.found) << what;
  EXPECT_EQ(s.server, e.server) << what;
  EXPECT_EQ(s.pointer_node, e.pointer_node) << what;
  EXPECT_EQ(s.hops, e.hops) << what;
  EXPECT_EQ(s.latency, e.latency) << what;
}

/// Publishes `objects` on both twins (sync on `sync`, event-driven on
/// `event`) and checks stores and per-kind traffic agree.
std::vector<Guid> publish_twins(Network& sync, Network& event,
                                const std::vector<NodeId>& ids,
                                std::size_t objects, const std::string& what) {
  std::vector<Guid> guids;
  for (std::size_t k = 0; k < objects; ++k) {
    const Guid guid = make_guid(sync, 0x7000 + k);
    const NodeId server = ids[(k * 37 + 5) % ids.size()];
    const KindCounts s0 = transport_counts(sync);
    const KindCounts e0 = transport_counts(event);
    sync.publish(server, guid);
    event.publish_async(server, guid);
    event.events().run();
    EXPECT_EQ(delta(transport_counts(sync), s0),
              delta(transport_counts(event), e0))
        << what << " publish " << k;
    guids.push_back(guid);
  }
  expect_same_stores(sync, event, what + " after publish");
  return guids;
}

TEST(EngineTwin, SyncAndEventEnginesAgreeAcrossTheMatrix) {
  std::vector<TwinConfig> matrix;
  for (const std::size_t cache : {std::size_t{0}, std::size_t{128}})
    for (const bool secondary : {false, true})
      for (const RoutingMode routing :
           {RoutingMode::kTapestryNative, RoutingMode::kPrrLike})
        for (const bool replicated : {false, true})
          matrix.push_back(TwinConfig{cache, secondary, routing, replicated});

  for (const TwinConfig& cfg : matrix) {
    const std::string what = describe(cfg);
    auto sync = static_ring_network(256, 404, twin_params(cfg));
    auto event = static_ring_network(256, 404, twin_params(cfg));
    ASSERT_EQ(sync.ids, event.ids);
    const std::vector<Guid> guids =
        publish_twins(*sync.net, *event.net, sync.ids, 32, what);

    if (cfg.replicated) {
      // Kill every object root that serves nothing, so locates
      // for them reach a fresh surrogate with no records: quorum reads.
      std::unordered_set<std::uint64_t> servers;
      for (const auto& [g, s] : sync.net->directory().published())
        servers.insert(s.value());
      for (std::size_t k = 0; k < guids.size(); ++k) {
        const NodeId root = sync.net->surrogate_root(guids[k]);
        if (servers.count(root.value()) != 0 || !sync.net->contains(root))
          continue;
        sync.net->fail(root);
        event.net->fail(root);
      }
      expect_same_stores(*sync.net, *event.net, what + " after root kills");
    }

    const std::vector<NodeId> clients = sync.net->node_ids();
    Rng rng(77);
    for (int q = 0; q < 256; ++q) {
      const NodeId client = clients[rng.next_u64(clients.size())];
      const Guid guid = guids[rng.next_u64(guids.size())];
      const std::string at = what + " query " + std::to_string(q);
      const KindCounts s0 = transport_counts(*sync.net);
      const KindCounts e0 = transport_counts(*event.net);
      const LocateResult s = sync.net->locate(client, guid);
      const LocateResult e = drain_locate_async(*event.net, client, guid);
      expect_same_result(s, e, at);
      EXPECT_EQ(delta(transport_counts(*sync.net), s0),
                delta(transport_counts(*event.net), e0))
          << at;
    }
    expect_same_stores(*sync.net, *event.net, what + " after locates");
    if (cfg.replicated) {
      const auto& sq = sync.net->directory().replicator()->stats();
      const auto& eq = event.net->directory().replicator()->stats();
      EXPECT_GT(sq.quorum_reads, 0u) << what;
      EXPECT_EQ(sq.quorum_reads, eq.quorum_reads) << what;
      EXPECT_EQ(sq.read_repairs, eq.read_repairs) << what;
    }
  }
}

// Figure 10: a query reaching a root that is still inserting (and lacks
// the pointer) bounces to the root's surrogate, excluding it from then on.
TEST(EngineTwin, InsertingRootBounceAgrees) {
  auto sync = static_ring_network(256, 405, small_params());
  auto event = static_ring_network(256, 405, small_params());
  const Guid guid = make_guid(*sync.net, 0xb0b);
  const NodeId server = sync.ids[11];
  sync.net->publish(server, guid);
  event.net->publish_async(server, guid);
  event.net->events().run();

  // The node before the root on the publish path holds the pointer and
  // plays the surrogate the inserting root bounces queries to.
  const RouteResult path =
      sync.net->router().route_to_root_peek(server, guid);
  ASSERT_GE(path.path.size(), 2u);
  const NodeId root = path.root;
  const NodeId surrogate = path.path[path.path.size() - 2];
  for (Network* n : {sync.net.get(), event.net.get()}) {
    TapestryNode& r = n->node(root);
    r.inserting = true;
    r.psurrogate = surrogate;
    r.store().remove(guid, server);
  }

  Rng rng(78);
  std::size_t bounced = 0;
  for (int q = 0; q < 256; ++q) {
    const NodeId client = sync.ids[rng.next_u64(sync.ids.size())];
    const KindCounts s0 = transport_counts(*sync.net);
    const KindCounts e0 = transport_counts(*event.net);
    const LocateResult s = sync.net->locate(client, guid);
    const LocateResult e = drain_locate_async(*event.net, client, guid);
    expect_same_result(s, e, "query " + std::to_string(q));
    EXPECT_EQ(delta(transport_counts(*sync.net), s0),
              delta(transport_counts(*event.net), e0));
    if (s.found && s.pointer_node == surrogate) ++bounced;
  }
  EXPECT_GT(bounced, 0u) << "no query reached the inserting root";
  expect_same_stores(*sync.net, *event.net, "after bounces");
}

// A cache hint whose holder lost the record: every verification fails,
// bounces back and resumes the walk.  Both engines must count the bounce
// node once and perform the same resume lookup.
TEST(EngineTwin, CacheStatsAgreeOnForcedBounce) {
  TapestryParams p = small_params();
  p.locate_cache_size = 128;
  auto sync = static_ring_network(256, 406, p);
  p = small_params();
  p.locate_cache_size = 128;
  auto event = static_ring_network(256, 406, p);
  const Guid guid = make_guid(*sync.net, 0xcafe);
  const NodeId server = sync.ids[21];
  sync.net->publish(server, guid);
  event.net->publish_async(server, guid);
  event.net->events().run();
  // Pick a client whose walk meets the publish path short of the root, so
  // the root still answers once that holder loses its record.
  const Router& router = sync.net->router();
  const std::vector<NodeId> publish_path =
      router.route_to_root_peek(server, guid).path;
  const std::unordered_set<std::uint64_t> on_path = [&] {
    std::unordered_set<std::uint64_t> s;
    for (std::size_t i = 0; i + 1 < publish_path.size(); ++i)
      s.insert(publish_path[i].value());
    return s;
  }();
  std::optional<NodeId> client;
  for (const NodeId& c : sync.ids) {
    if (on_path.count(c.value()) != 0) continue;
    const auto walk = router.route_to_root_peek(c, guid).path;
    if (std::any_of(walk.begin(), walk.end(), [&](const NodeId& n) {
          return on_path.count(n.value()) != 0;
        })) {
      client = c;
      break;
    }
  }
  ASSERT_TRUE(client.has_value());
  // Warm both caches with one query; the hints name the holder.
  const LocateResult warm = sync.net->locate(*client, guid);
  expect_same_result(warm, drain_locate_async(*event.net, *client, guid),
                     "warm-up");
  ASSERT_TRUE(warm.found);
  const NodeId holder = warm.pointer_node;
  ASSERT_EQ(on_path.count(holder.value()), 1u);
  for (Network* n : {sync.net.get(), event.net.get()})
    n->node(holder).store().remove(guid, server);

  const LocateCache::Stats s0 = sync.net->directory().locate_cache().stats();
  const LocateCache::Stats e0 = event.net->directory().locate_cache().stats();
  EXPECT_EQ(s0.hits, e0.hits);
  EXPECT_EQ(s0.misses, e0.misses);
  EXPECT_EQ(s0.insertions, e0.insertions);
  const LocateResult s = sync.net->locate(*client, guid);
  const LocateResult e = drain_locate_async(*event.net, *client, guid);
  expect_same_result(s, e, "bounced query");
  EXPECT_TRUE(s.found);

  const LocateCache::Stats& sc = sync.net->directory().locate_cache().stats();
  const LocateCache::Stats& ec = event.net->directory().locate_cache().stats();
  EXPECT_GT(sc.fallbacks, s0.fallbacks) << "no bounce happened";
  EXPECT_EQ(sc.hits, ec.hits);
  EXPECT_EQ(sc.misses, ec.misses);
  EXPECT_EQ(sc.expired, ec.expired);
  EXPECT_EQ(sc.fallbacks, ec.fallbacks);
  EXPECT_EQ(sc.insertions, ec.insertions);
  EXPECT_EQ(sc.invalidated, ec.invalidated);
}

// Regression: a pointer found, then a partition diverting the final
// pointer -> replica leg, is a miss — and a miss names no server or
// pointer holder.  The synchronous engine used to return both fields
// from the failed leg.  Found by sweeping small partitioned overlays.
TEST(EngineTwin, PartitionDivertedLegMissNamesNoServer) {
  for (const bool event_engine : {false, true}) {
    auto g = static_ring_network(32, 6, small_params());
    const Guid guid = make_guid(*g.net, 0x5000);
    g.net->publish(g.ids[0], guid);
    auto sorted = g.ids;
    std::sort(sorted.begin(), sorted.end());
    std::vector<NodeId> side_b;  // odd ranks, as the partition scenario
    for (std::size_t i = 1; i < sorted.size(); i += 2)
      side_b.push_back(sorted[i]);
    g.net->set_partition(side_b);
    const NodeId client = g.ids[4];
    const LocateResult r = event_engine
                               ? drain_locate_async(*g.net, client, guid)
                               : g.net->locate(client, guid);
    EXPECT_FALSE(r.found) << "engine " << event_engine;
    EXPECT_FALSE(r.server.valid()) << "engine " << event_engine;
    EXPECT_FALSE(r.pointer_node.valid()) << "engine " << event_engine;
    EXPECT_GT(r.hops, 0u);
  }
}

}  // namespace
}  // namespace tap
