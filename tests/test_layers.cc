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

  // Bulk registration across several index growths: 256 nodes, then six
  // batches of 384.  Every node resolves to itself, random absent ids
  // miss, the live count is exact and a duplicate id is rejected.
  Rng rng(33);
  RingMetric space(4096, rng);
  Network bulk(space, small_params(), 77);
  const NodeRegistry& bulk_reg = bulk.registry();
  std::size_t next_loc = 0;
  for (const std::size_t batch : {256, 384, 384, 384, 384, 384, 384}) {
    std::vector<Location> locs(batch);
    for (std::size_t i = 0; i < batch; ++i) locs[i] = next_loc + i;
    bulk.insert_static_bulk(locs, 2);
    next_loc += batch;
  }
  EXPECT_EQ(bulk_reg.live_count(), next_loc);
  std::unordered_set<std::uint64_t> registered;
  for (const auto& n : bulk_reg.nodes()) {
    EXPECT_EQ(bulk_reg.find(n->id()), n.get());
    registered.insert(n->id().value());
  }
  Rng probe(100);
  std::size_t misses = 0;
  for (int i = 0; i < 4096; ++i) {
    const Id absent = Id::random(bulk.params().id, probe);
    if (registered.count(absent.value()) != 0) continue;
    EXPECT_EQ(bulk_reg.find(absent), nullptr);
    ++misses;
  }
  EXPECT_GT(misses, 0u);
  EXPECT_THROW(bulk.registry().register_node(bulk_reg.nodes()[300]->id(), 4095),
               CheckError);
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

  // A wave registers its joiners in request order, on any worker count.
  std::vector<JoinRequest> wave;
  for (Location loc = 56; loc < 72; ++loc) wave.push_back({loc});
  const std::vector<NodeId> joined = net.join_bulk(wave, 4);
  expect_live_order("join_bulk wave");
  EXPECT_EQ(reg.live_ids().size(), reg.live_count());
  ASSERT_EQ(joined.size(), wave.size());
  const std::size_t first_node = reg.nodes().size() - joined.size();
  const std::size_t first_live = reg.live_ids().size() - joined.size();
  for (std::size_t i = 0; i < joined.size(); ++i) {
    EXPECT_EQ(reg.nodes()[first_node + i]->id(), joined[i]) << i;
    EXPECT_EQ(reg.live_ids()[first_live + i], joined[i]) << i;
  }
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

// What an operation may deliver against what it books: kAll when every
// message it books crosses the transport, kNoMoreThanBooked when it also
// books traffic no transport carries (joins, leaves, purging sweeps).
enum class Delivered { kAll, kNoMoreThanBooked };

// Runs `run` on a fresh Trace and checks the three message ledgers around
// it: tapestry_messages_total moves by what the Trace holds, and the
// transport delivers what `delivered` allows.
template <typename Run>
void expect_ledgers(const Network& net, const std::string& op,
                    Delivered delivered, Run&& run) {
  const metrics::Counter& counter = metrics::messages_total();
  const TransportStats& ts = net.transport().stats();
  Trace trace;
  const std::uint64_t booked0 = counter.value();
  const std::uint64_t sent0 = ts.messages.load();
  run(&trace);
  const std::uint64_t sent = ts.messages.load() - sent0;
  EXPECT_GT(trace.messages(), 0u) << op;
  EXPECT_EQ(counter.value() - booked0, trace.messages()) << op;
  if (delivered == Delivered::kAll)
    EXPECT_EQ(sent, trace.messages()) << op;
  else
    EXPECT_LE(sent, trace.messages()) << op;
}

// Transport::send and NodeRegistry::acct are the Trace ledger's two
// booking points, and each books tapestry_messages_total with the Trace,
// so every operation moves the counter by exactly what its Trace holds.
// send also delivers what it books: an operation made only of protocol
// messages (routing, the directory, the replicator, the §4.1 multicast, a
// sweep over a corpse-free mesh, the locality layer) delivers exactly its
// Trace.  Joins, leaves and a sweep that purges also book what no
// transport carries (registry.h lists it), so they deliver no more.
TEST(RegistrySeam, MessageCounterEqualsTraceLedger) {
  Rng rng(23);
  TransitStubMetric space(128, rng);
  Network net(space, small_params(), 0x1ed6e7);
  std::vector<NodeId> ids{net.bootstrap(0)};
  for (Location loc = 1; loc < 96; ++loc) ids.push_back(net.join(loc));
  LocalityManager locality(net, space);
  Location spare = 96;
  const auto all = Delivered::kAll;
  const auto some = Delivered::kNoMoreThanBooked;

  expect_ledgers(net, "join_via", some, [&](Trace* t) {
    (void)net.join_via(ids[1], spare++, std::nullopt, t);
  });
  expect_ledgers(net, "join_bulk", some, [&](Trace* t) {
    std::vector<JoinRequest> batch;
    for (int i = 0; i < 4; ++i) batch.push_back(JoinRequest{spare++});
    (void)net.join_bulk(batch, 2, t);
  });
  {
    std::vector<EventJoin> batch;
    for (std::size_t i = 0; i < 6; ++i) {
      EventJoin r;
      r.loc = spare++;
      r.gateway = ids[2 + i];
      r.start_time = net.now() + 0.1 * static_cast<double>(i);
      batch.push_back(r);
    }
    const metrics::Counter& counter = metrics::messages_total();
    const std::uint64_t before = counter.value();
    const std::uint64_t sent0 = net.transport().stats().messages.load();
    std::size_t booked = 0;
    for (const auto& out : net.join_events(batch, 0.05)) booked += out.messages;
    EXPECT_GT(booked, 0u);
    EXPECT_EQ(counter.value() - before, booked) << "join_events";
    EXPECT_LE(net.transport().stats().messages.load() - sent0, booked)
        << "join_events";
  }
  for (std::size_t i = 10; i < 13; ++i) net.fail(ids[i]);
  expect_ledgers(net, "heartbeat_sweep after fails", some,
                 [&](Trace* t) { net.heartbeat_sweep(t); });
  // The first sweep pushed once to each corpse and purged it: the next
  // is heartbeats only.
  expect_ledgers(net, "second heartbeat_sweep", all,
                 [&](Trace* t) { net.heartbeat_sweep(t); });
  expect_ledgers(net, "leave", some, [&](Trace* t) {
    for (std::size_t i = 20; i < 26; ++i) net.leave(ids[i], t);
  });
  expect_ledgers(net, "rebuild_neighbor_table", some,
                 [&](Trace* t) { net.rebuild_neighbor_table(ids[30], t); });
  expect_ledgers(net, "multicast", all, [&](Trace* t) {
    (void)net.multicast(ids[0], ids[0], 0, [](NodeId) {}, t);
  });
  const Guid guid = make_guid(net, 0x1ed6);
  expect_ledgers(net, "publish", all,
                 [&](Trace* t) { net.publish(ids[40], guid, t); });
  expect_ledgers(net, "locate", all,
                 [&](Trace* t) { (void)net.locate(ids[50], guid, t); });
  expect_ledgers(net, "unpublish", all,
                 [&](Trace* t) { net.unpublish(ids[40], guid, t); });
  const Guid local = make_guid(net, 0x10ca1);
  const NodeId server = ids[60];
  expect_ledgers(net, "locality publish", all,
                 [&](Trace* t) { locality.publish(server, local, t); });
  for (const NodeId& client : locality.stub_members(locality.stub_of(server)))
    if (!(client == server))
      expect_ledgers(net, "locality locate", all, [&](Trace* t) {
        (void)locality.locate(client, local, t);
      });

  // Locate cache: a hit whose verification holds, then one whose holder
  // lost the record and bounces the query back onto its walk.
  {
    TapestryParams p = small_params();
    p.locate_cache_size = 64;
    auto g = static_ring_network(128, 24, p);
    Network& cached = *g.net;
    const LocateCache& cache = cached.directory().locate_cache();
    const Guid obj = make_guid(cached, 0xcac4e);
    const NodeId from = g.ids[3];
    cached.publish(from, obj);
    std::size_t bounced = 0;
    for (const NodeId& client : g.ids) {
      const LocateResult warm = cached.locate(client, obj);
      ASSERT_TRUE(warm.found);
      if (warm.pointer_node == client) continue;
      const std::uint64_t hits = cache.stats().hits;
      expect_ledgers(cached, "cached locate", all,
                     [&](Trace* t) { (void)cached.locate(client, obj, t); });
      ASSERT_GT(cache.stats().hits, hits) << "no cache hit";
      cached.node(warm.pointer_node).store().remove(obj, from);
      const std::uint64_t fallbacks = cache.stats().fallbacks;
      expect_ledgers(cached, "bounced locate", all,
                     [&](Trace* t) { (void)cached.locate(client, obj, t); });
      EXPECT_GT(cache.stats().fallbacks, fallbacks) << "no bounce";
      ++bounced;
      break;
    }
    EXPECT_EQ(bounced, 1u);
  }

  // Quorum replication: a publish mirrors to the root's holders.  With the
  // root failed and swept, and the copy the sweep rerouted to its
  // successor dropped, a locate from the successor reads a quorum.  An
  // unpublish withdraws the mirrors.
  {
    TapestryParams p = small_params();
    p.store_backend = StoreBackend::kReplicated;
    p.store_dir.clear();
    auto g = static_ring_network(96, 25, p);
    Network& repl = *g.net;
    const Guid obj = make_guid(repl, 0x9e9);
    const NodeId from = *std::find_if(
        g.ids.begin(), g.ids.end(),
        [&](const NodeId& id) { return id.digit(0) != obj.digit(0); });
    expect_ledgers(repl, "replicated publish", all,
                   [&](Trace* t) { repl.publish(from, obj, t); });
    repl.fail(repl.surrogate_root(obj));
    repl.heartbeat_sweep();
    const NodeId fresh = repl.surrogate_root(obj);
    ASSERT_NE(fresh, from);
    repl.node(fresh).store().remove(obj, from);
    const auto& stats = repl.directory().replicator()->stats();
    const std::size_t reads = stats.quorum_reads;
    expect_ledgers(repl, "quorum-read locate", all, [&](Trace* t) {
      EXPECT_TRUE(repl.locate(fresh, obj, t).found);
    });
    EXPECT_GT(stats.quorum_reads, reads) << "no quorum read";
    expect_ledgers(repl, "replicated unpublish", all,
                   [&](Trace* t) { repl.unpublish(from, obj, t); });
  }
}

// Counts the withdrawals (kUnpublish) the directory delivers to a corpse
// or across an active partition, then delivers through the network's own
// transport.
class WithdrawalRecorder final : public Transport {
 public:
  explicit WithdrawalRecorder(Network& net)
      : net_(net), inner_(net.transport()) {
    net_.directory().bind_transport(this);
  }
  ~WithdrawalRecorder() override { net_.directory().bind_transport(&inner_); }
  [[nodiscard]] const char* name() const override { return "recorder"; }
  [[nodiscard]] Message deliver(const Message& m) override {
    if (m.kind == MessageKind::kUnpublish) {
      ++withdrawals;
      if (!net_.registry().is_live(m.dst)) ++to_corpses;
      if (!net_.registry().reachable(m.src, m.dst)) ++across_cut;
    }
    return inner_.deliver(m);
  }
  std::size_t withdrawals = 0;
  std::size_t to_corpses = 0;
  std::size_t across_cut = 0;

 private:
  Network& net_;
  Transport& inner_;
};

// §2.4 PRR secondary traffic is protocol traffic like the rest: the
// locate's probe of each secondary is a request and a reply, and the
// publish's deposits and the unpublish's withdrawals on the secondaries
// are pointer-carrying messages, each booked once as it is delivered.
// The withdrawals skip what the deposits and probes skip: a corpse and a
// node across an active partition.
TEST(RegistrySeam, PrrSecondaryTrafficDeliversWhatItBooks) {
  TapestryParams p = small_params();
  p.prr_secondary_search = true;
  auto g = static_ring_network(128, 26, p);
  Network& net = *g.net;
  const Delivered all = Delivered::kAll;
  for (std::uint64_t k = 0; k < 8; ++k) {
    const Guid obj = make_guid(net, 0x9229 + k);
    const NodeId from = g.ids[5 + 7 * k];
    const NodeId client = g.ids[90 - 9 * k];
    expect_ledgers(net, "prr publish", all,
                   [&](Trace* t) { net.publish(from, obj, t); });
    expect_ledgers(net, "prr locate", all,
                   [&](Trace* t) { (void)net.locate(client, obj, t); });
    expect_ledgers(net, "prr unpublish", all,
                   [&](Trace* t) { net.unpublish(from, obj, t); });
  }

  // 48 objects from the first 48 nodes, then 24 fail-stops among the
  // rest.  Half the objects are withdrawn with the corpses unswept, the
  // other half across a cut of the odd ranks of the sorted ids.
  std::vector<Guid> objs;
  for (std::uint64_t k = 0; k < 48; ++k) {
    objs.push_back(make_guid(net, 0x5ec0 + k));
    net.publish(g.ids[k], objs.back());
  }
  for (std::size_t i = 56; i < 128; i += 3) net.fail(g.ids[i]);
  auto sorted = g.ids;
  std::sort(sorted.begin(), sorted.end());
  std::vector<NodeId> side_b;
  for (std::size_t i = 1; i < sorted.size(); i += 2)
    side_b.push_back(sorted[i]);
  WithdrawalRecorder rec(net);
  for (std::size_t k = 0; k < objs.size(); ++k) {
    if (k == objs.size() / 2) net.set_partition(side_b);
    expect_ledgers(net, "prr unpublish after fails",
                   Delivered::kNoMoreThanBooked,
                   [&](Trace* t) { net.unpublish(g.ids[k], objs[k], t); });
  }
  net.heal_partition();
  EXPECT_GT(rec.withdrawals, 0u);
  EXPECT_EQ(rec.to_corpses, 0u) << "withdrawals delivered to corpses";
  EXPECT_EQ(rec.across_cut, 0u) << "withdrawals delivered across the cut";
}

// §4.2's backward delete is a chain of wire messages, the converge node
// sending the first: every link is delivered and booked once, and the
// chain's records go while the changed node's and the converge node's
// stay.
TEST(RegistrySeam, BackwardDeleteBooksEveryLink) {
  auto g = static_ring_network(256, 28);
  Network& net = *g.net;
  // A publish path server -> p1 -> ... -> root of at least five nodes:
  // with p1 as the changed node and the root as the converge node, the
  // chain runs from the node before the root back to p2.
  Guid guid{};
  NodeId server{};
  std::vector<NodeId> path;
  for (std::uint64_t raw = 0; path.size() < 5; ++raw) {
    ASSERT_LT(raw, 4096u) << "no publish path of five nodes";
    guid = make_guid(net, 0xde1e7e + raw);
    server = g.ids[raw % g.ids.size()];
    path = net.router().route_to_root_peek(server, guid).path;
  }
  net.publish(server, guid);
  const std::size_t links = path.size() - 3;
  double chain_dist = 0.0;
  for (std::size_t i = path.size() - 1; i > 2; --i)
    chain_dist += net.distance(path[i], path[i - 1]);

  const TransportStats& ts = net.transport().stats();
  const std::uint64_t sent0 = ts.kind_count(MessageKind::kDeleteBackward);
  const std::uint64_t booked0 = metrics::messages_total().value();
  Trace trace;
  net.directory().delete_backward(path.back(), path[path.size() - 2], guid,
                                  server, path[1], &trace);
  EXPECT_EQ(ts.kind_count(MessageKind::kDeleteBackward) - sent0, links);
  EXPECT_EQ(trace.messages(), links);
  EXPECT_EQ(metrics::messages_total().value() - booked0, links);
  EXPECT_DOUBLE_EQ(trace.latency(), chain_dist);
  for (std::size_t i = 2; i + 1 < path.size(); ++i)
    EXPECT_FALSE(net.node(path[i]).store().find(guid, server).has_value())
        << "chain node " << i;
  EXPECT_TRUE(net.node(path[1]).store().find(guid, server).has_value());
  EXPECT_TRUE(net.node(path.back()).store().find(guid, server).has_value());
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

// A locate whose first hop has just fail-stopped pays a lazy repair: the
// probe to the corpse, the replacement search and the §4.2 reroutes it
// sets off.  That traffic stays on the locate's Trace, and so on
// tapestry_messages_total, but out of its hops, which count only the
// query's own messages (here its walk and replica-leg forwards).  Both
// engines report the same hops.  The memory store is set here: a quorum
// read would add the replica kinds to the query's own messages.
TEST(EngineTwin, LocateHopsCountOnlyItsOwnMessages) {
  TapestryParams p = small_params();
  p.store_backend = StoreBackend::kMemory;
  auto sync = static_ring_network(128, 407, p);
  p = small_params();
  p.store_backend = StoreBackend::kMemory;
  auto event = static_ring_network(128, 407, p);
  const std::vector<Guid> guids =
      publish_twins(*sync.net, *event.net, sync.ids, 64, "corpse twins");
  std::unordered_set<std::uint64_t> servers;
  for (const auto& [g, s] : sync.net->directory().published())
    servers.insert(s.value());

  Rng rng(79);
  std::size_t repaired = 0;
  for (int q = 0; q < 64 && repaired < 24; ++q) {
    const std::vector<NodeId> clients = sync.net->node_ids();
    const NodeId client = clients[rng.next_u64(clients.size())];
    const Guid guid = guids[rng.next_u64(guids.size())];
    // The client holds no pointer, so it routes, and its first hop is
    // neither the root nor a server.
    if (!sync.net->node(client).store().find_all(guid).empty()) continue;
    const auto walk = sync.net->router().route_to_root_peek(client, guid).path;
    if (walk.size() < 3 || servers.count(walk[1].value()) != 0) continue;
    sync.net->fail(walk[1]);
    event.net->fail(walk[1]);
    ++repaired;

    const std::string at = "query " + std::to_string(q);
    const KindCounts s0 = transport_counts(*sync.net);
    const KindCounts e0 = transport_counts(*event.net);
    const std::uint64_t booked0 = metrics::messages_total().value();
    Trace trace;
    const LocateResult s = sync.net->locate(client, guid, &trace);
    EXPECT_TRUE(s.found) << at;
    EXPECT_EQ(metrics::messages_total().value() - booked0, trace.messages())
        << at;
    const KindCounts sd = delta(transport_counts(*sync.net), s0);
    const auto kind = [&](MessageKind k) {
      return sd[static_cast<std::size_t>(k)];
    };
    EXPECT_EQ(s.hops,
              kind(MessageKind::kLocateStep) + kind(MessageKind::kRouteHop))
        << at;
    EXPECT_GT(trace.messages(), s.hops) << at << ": no repair on the Trace";
    const LocateResult e = drain_locate_async(*event.net, client, guid);
    expect_same_result(s, e, at);
    EXPECT_EQ(sd, delta(transport_counts(*event.net), e0)) << at;
  }
  EXPECT_EQ(repaired, 24u);
  expect_same_stores(*sync.net, *event.net, "after repairing locates");
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
