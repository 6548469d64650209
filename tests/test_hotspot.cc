// Locate cache + hotspot replication (ISSUE 6): LRU bounds, verify-at-
// holder fallback semantics (crash / unpublish / expiry must agree with
// the uncached path), event-queue interleaving sweeps, and the demand-
// driven promote/demote policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "locate_cache_reference.h"
#include "src/tapestry/hotspot.h"
#include "test_util.h"

namespace tap {
namespace {

using test::make_guid;
using test::small_params;

TapestryParams cached_params(std::size_t cache = 64) {
  TapestryParams p = small_params();
  p.locate_cache_size = cache;
  return p;
}

NodeId pick_client(const test::GrownNetwork& g, const Guid& guid,
                   const NodeId& server) {
  const NodeId root = g.net->surrogate_root(guid);
  for (const NodeId& id : g.ids)
    if (!(id == root) && !(id == server)) return id;
  return g.ids[0];
}

// ------------------------------------------------------------ LocateCache unit

TEST(LocateCache, LruBoundAndEviction) {
  const IdSpec spec{4, 8};
  LocateCache cache(spec, 3);
  const NodeId at(spec, 0x11);
  auto guid = [&](std::uint64_t v) { return Guid(spec, v); };
  auto entry = [&](std::uint64_t v) {
    return LocateCache::Entry{guid(v), NodeId(spec, 0x22), NodeId(spec, 0x33),
                              100.0};
  };
  for (std::uint64_t v = 1; v <= 5; ++v)
    cache.insert(at, guid(v), entry(v), 0.0);
  EXPECT_EQ(cache.entries_at(at), 3u) << "capacity must bound the LRU";
  // 1 and 2 were evicted as stalest; 3..5 survive.
  EXPECT_FALSE(cache.lookup(at, guid(1), 0.0).has_value());
  EXPECT_FALSE(cache.lookup(at, guid(2), 0.0).has_value());
  EXPECT_TRUE(cache.lookup(at, guid(3), 0.0).has_value());
  // Touching 3 makes 4 the eviction victim for the next insert.
  cache.insert(at, guid(6), entry(6), 0.0);
  EXPECT_FALSE(cache.lookup(at, guid(4), 0.0).has_value());
  EXPECT_TRUE(cache.lookup(at, guid(3), 0.0).has_value());
  EXPECT_TRUE(cache.lookup(at, guid(6), 0.0).has_value());
}

TEST(LocateCache, PastDeadlineRecordIsNeverCached) {
  const IdSpec spec{4, 8};
  LocateCache cache(spec, 8);
  const NodeId at(spec, 0x11);
  const Guid g(spec, 7);
  // A record already past its deadline is never cached.
  cache.insert(at, g,
               LocateCache::Entry{g, NodeId(spec, 0x22), NodeId(spec, 0x33),
                                  0.5},
               /*now=*/1.0);
  EXPECT_EQ(cache.entries_at(at), 0u);
}

TEST(LocateCache, InvalidateByNode) {
  // A death drops the corpse's own LRU and nothing else: a hint naming
  // the corpse as holder or server stays until a lookup reads it, which
  // drops it and counts a miss.
  const IdSpec spec{4, 8};
  std::set<std::uint64_t> dead;
  auto is_live = [&](const NodeId& id) { return dead.count(id.value()) == 0; };
  LocateCache cache(spec, 8, is_live);
  const NodeId a(spec, 0x11), b(spec, 0x12);
  const NodeId holder(spec, 0x22), server(spec, 0x33);
  const Guid g1(spec, 1), g2(spec, 2);
  cache.insert(a, g1, {g1, holder, server, 100.0}, 0.0);
  cache.insert(b, g2, {g2, server, server, 100.0}, 0.0);
  const NodeId c(spec, 0x44);
  cache.insert(c, g2, {g2, server, server, 100.0}, 0.0);
  ASSERT_EQ(cache.entries(), 3u);
  dead.insert(c.value());
  cache.drop_node(c);
  EXPECT_EQ(cache.entries_at(c), 0u);
  EXPECT_EQ(cache.entries(), 2u);

  dead.insert(holder.value());
  cache.drop_node(holder);
  EXPECT_EQ(cache.entries(), 2u) << "a's hint naming the holder must stay";
  std::size_t misses = cache.stats().misses;
  EXPECT_FALSE(cache.lookup(a, g1, 0.0).has_value());
  EXPECT_EQ(cache.stats().misses, misses + 1);
  EXPECT_EQ(cache.entries_at(a), 0u) << "the read must drop the hint";

  dead.insert(server.value());
  cache.drop_node(server);
  EXPECT_EQ(cache.entries(), 1u) << "b's hint naming the server must stay";
  misses = cache.stats().misses;
  EXPECT_FALSE(cache.lookup(b, g2, 0.0).has_value());
  EXPECT_EQ(cache.stats().misses, misses + 1);
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(LocateCache, FlatSlotsMatchListReference) {
  // One random op stream drives the flat slot arrays and the std::list
  // LRU they replaced (tests/locate_cache_reference.h) over 8 nodes:
  // inserts of new, cached and born-dead guids; lookups that hit, miss,
  // expire or read a dead holder or server; erase; and deaths, which
  // drop_node the corpse's LRU.  A liveness oracle and a clock that
  // passes deadlines drive the dead and expired cases.  After every op
  // both must agree on the returned entry, all six counters and every
  // node's size.
  const IdSpec spec{4, 8};
  for (const std::size_t capacity : {1, 2, 3, 128}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(testing::Message()
                   << "capacity " << capacity << ", seed " << seed);
      std::set<std::uint64_t> dead;
      auto is_live = [&dead](const NodeId& id) {
        return dead.count(id.value()) == 0;
      };
      LocateCache flat(spec, capacity, is_live);
      reference::LocateCache ref(capacity, is_live);
      std::vector<NodeId> nodes;
      for (std::uint64_t v = 0; v < 8; ++v) nodes.emplace_back(spec, 0x100 + v);
      // Holders and servers: the 8 cache nodes and 4 nodes without a cache.
      std::vector<NodeId> peers = nodes;
      for (std::uint64_t v = 0; v < 4; ++v) peers.emplace_back(spec, 0x200 + v);
      // Enough guids past capacity that inserts evict, few enough that
      // they also refresh cached ones.
      const std::uint64_t guids = 2 * capacity + 4;
      Rng rng(seed * 977 + capacity);
      auto pick = [&rng](const std::vector<NodeId>& v) {
        return v[rng.next_u64(v.size())];
      };
      double now = 0.0;
      std::size_t full_nodes_seen = 0, absent_misses = 0;
      for (int op = 0; op < 6000; ++op) {
        // Node 0 takes over half the ops, so it fills even at capacity 128.
        const NodeId at = nodes[rng.next_u64(2) == 0 ? 0 : rng.next_u64(8)];
        const Guid base(spec, 1 + rng.next_u64(guids));
        const std::uint64_t roll = rng.next_u64(100);
        if (roll < 45) {
          // A third live briefly (some are born dead), the rest outlive
          // hundreds of ops.  Deadlines and clock steps are multiples of
          // 0.25, so the clock also lands exactly on deadlines.
          const double life =
              0.25 * static_cast<double>(rng.next_u64(3) == 0
                                             ? rng.next_u64(18)
                                             : 80 + rng.next_u64(80)) -
              0.5;
          const LocateCache::Entry e{Guid(spec, rng.next_u64(spec.mask())),
                                     pick(peers), pick(peers), now + life};
          flat.insert(at, base, e, now);
          ref.insert(at, base, e, now);
        } else if (roll < 80) {
          const std::size_t dropped =
              flat.stats().expired + flat.stats().invalidated;
          const auto a = flat.lookup(at, base, now);
          const auto b = ref.lookup(at, base, now);
          ASSERT_EQ(a.has_value(), b.has_value()) << "op " << op;
          if (a.has_value()) {
            EXPECT_EQ(a->target, b->target) << "op " << op;
            EXPECT_EQ(a->holder, b->holder) << "op " << op;
            EXPECT_EQ(a->server, b->server) << "op " << op;
            EXPECT_EQ(a->expires, b->expires) << "op " << op;
          } else if (flat.stats().expired + flat.stats().invalidated ==
                     dropped) {
            ++absent_misses;
          }
        } else if (roll < 88) {
          flat.erase(at, base);
          ref.erase(at, base);
        } else if (roll < 94) {
          now += 0.25 * static_cast<double>(rng.next_u64(8));
        } else if (roll < 96) {
          flat.note_fallback();
          ref.note_fallback();
        } else if (roll < 98) {
          const NodeId victim = pick(peers);
          dead.insert(victim.value());
          flat.drop_node(victim);
          ref.drop_node(victim);
        } else {
          dead.clear();  // fresh peers under the same ids
        }
        const LocateCache::Stats& fs = flat.stats();
        const LocateCache::Stats& rs = ref.stats();
        ASSERT_EQ(fs.hits, rs.hits) << "op " << op;
        ASSERT_EQ(fs.misses, rs.misses) << "op " << op;
        ASSERT_EQ(fs.expired, rs.expired) << "op " << op;
        ASSERT_EQ(fs.fallbacks, rs.fallbacks) << "op " << op;
        ASSERT_EQ(fs.insertions, rs.insertions) << "op " << op;
        ASSERT_EQ(fs.invalidated, rs.invalidated) << "op " << op;
        ASSERT_EQ(flat.entries(), ref.entries()) << "op " << op;
        for (const NodeId& n : nodes) {
          ASSERT_EQ(flat.entries_at(n), ref.entries_at(n)) << "op " << op;
          if (flat.entries_at(n) == capacity) ++full_nodes_seen;
        }
      }
      // The stream reached every case it is meant to cover.
      const LocateCache::Stats& st = flat.stats();
      EXPECT_GT(st.hits, 0u);
      EXPECT_GT(st.expired, 0u);
      EXPECT_GT(st.invalidated, 0u);
      EXPECT_GT(absent_misses, 0u);
      EXPECT_GT(full_nodes_seen, 0u);
    }
  }
}

TEST(LocateCache, FullNodeCostsAtMost64BytesPerHint) {
  // The flat layout's budget at a full 128-entry node (the std::list +
  // unordered_map pair cost about 160 B per hint), and no growth once
  // the node is full.
  const IdSpec spec{4, 10};
  LocateCache cache(spec, 128);
  const NodeId at(spec, 0x11), holder(spec, 0x22), server(spec, 0x33);
  for (std::uint64_t v = 1; v <= 128; ++v)
    cache.insert(at, Guid(spec, v), {Guid(spec, v), holder, server, 10.0}, 0.0);
  ASSERT_EQ(cache.entries_at(at), 128u);
  const std::size_t full = cache.heap_bytes();
  EXPECT_LE(full, 64u * 128u) << full / 128.0 << " B per hint";
  for (std::uint64_t v = 129; v <= 1024; ++v)
    cache.insert(at, Guid(spec, v), {Guid(spec, v), holder, server, 10.0}, 0.0);
  EXPECT_EQ(cache.entries_at(at), 128u);
  EXPECT_EQ(cache.heap_bytes(), full) << "a full node's arrays must not grow";
}

TEST(LocateCache, CapacityPastSixteenBitSlotsIsRejected) {
  // Slot numbers and links are 16-bit: locate_cache_size above
  // kMaxCapacity must fail when the Network is built, not wrap a link.
  Rng rng(7);
  RingMetric space(16, rng);
  TapestryParams p;
  p.locate_cache_size = LocateCache::kMaxCapacity;
  EXPECT_NO_THROW(Network(space, p, 1));
  for (const std::size_t bad :
       {LocateCache::kMaxCapacity + 1, std::size_t{100000}, SIZE_MAX}) {
    p.locate_cache_size = bad;
    EXPECT_THROW(Network(space, p, 1), CheckError) << bad;
  }
}

TEST(LocateCache, RejectsIdsOfAnotherSpec) {
  // Hints are stored as bare values, so an id of another spec whose value
  // is in range would alias one of the cache's own spec.
  const IdSpec spec{4, 8}, other{2, 16};  // both 32 bits
  LocateCache cache(spec, 8);
  const NodeId at(spec, 0x11), holder(spec, 0x22);
  const Guid g(spec, 7), alien(other, 7);
  EXPECT_THROW(cache.insert(at, alien, {g, holder, holder, 10.0}, 0.0),
               CheckError);
  EXPECT_THROW(cache.insert(at, g, {g, NodeId(other, 0x22), holder, 10.0}, 0.0),
               CheckError);
  EXPECT_THROW((void)cache.lookup(at, alien, 0.0), CheckError);
  EXPECT_THROW((void)cache.lookup(NodeId(other, 0x11), g, 0.0), CheckError);
  EXPECT_THROW(cache.erase(at, alien), CheckError);
  EXPECT_THROW(cache.drop_node(NodeId{}), CheckError);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

// ------------------------------------------------- cached locate = uncached

TEST(HotspotCache, RepeatLocateHitsCacheAndAgrees) {
  auto g = test::static_ring_network(64, 11, cached_params());
  const Guid guid = make_guid(*g.net, 500);
  const NodeId server = g.ids[3];
  g.net->publish(server, guid);
  const NodeId client = pick_client(g, guid, server);

  const LocateResult cold = g.net->locate(client, guid);
  ASSERT_TRUE(cold.found);
  EXPECT_EQ(g.net->directory().locate_cache().stats().hits, 0u);

  const LocateResult warm = g.net->locate(client, guid);
  ASSERT_TRUE(warm.found);
  EXPECT_EQ(warm.server, cold.server);
  EXPECT_EQ(warm.pointer_node, cold.pointer_node)
      << "the hint jumps to the very holder the walk would reach";
  EXPECT_LE(warm.hops, cold.hops);
  EXPECT_GE(g.net->directory().locate_cache().stats().hits, 1u);
}

TEST(HotspotCache, UnpublishedHintDiesWhereRead) {
  // Unpublish walks no locate cache: a hint naming the withdrawn replica
  // stays until a query reads it.  That query jumps to the remembered
  // holder, finds no live record, drops the hint, counts a fallback and
  // resumes the walk, so it misses as the uncached locate does.
  auto g = test::static_ring_network(64, 12, cached_params());
  const Guid guid = make_guid(*g.net, 501);
  const NodeId server = g.ids[5];
  g.net->publish(server, guid);
  const NodeId client = pick_client(g, guid, server);
  ASSERT_TRUE(g.net->locate(client, guid).found);  // warm the path caches
  const LocateCache& cache = g.net->directory().locate_cache();
  const std::size_t warmed = cache.entries();
  ASSERT_GT(warmed, 0u);

  g.net->unpublish(server, guid);
  EXPECT_EQ(cache.entries(), warmed) << "unpublish must walk no cache";
  const std::size_t fallbacks = cache.stats().fallbacks;
  const LocateResult after = g.net->locate(client, guid);
  EXPECT_FALSE(after.found) << "cached locate must agree with uncached";
  EXPECT_GT(cache.stats().fallbacks, fallbacks);
  EXPECT_EQ(cache.entries(), 0u) << "each hint the query read must die";
}

TEST(HotspotCache, ReplicaCrashFallsBackToSurvivingReplica) {
  auto g = test::static_ring_network(64, 13, cached_params());
  const Guid guid = make_guid(*g.net, 502);
  const NodeId s1 = g.ids[3], s2 = g.ids[40];
  g.net->publish(s1, guid);
  g.net->publish(s2, guid);
  const NodeId client = pick_client(g, guid, s1);

  const LocateResult cold = g.net->locate(client, guid);
  ASSERT_TRUE(cold.found);

  // Crash whichever replica the cached hint names; the hint is dropped
  // when the next query reads it, and that query must still find the
  // survivor (fall back to the walk, not fail).
  const NodeId victim = cold.server;
  const NodeId survivor = victim == s1 ? s2 : s1;
  g.net->fail(victim);
  const LocateResult after = g.net->locate(client, guid);
  ASSERT_TRUE(after.found) << "a cached dead replica must fall back, not fail";
  EXPECT_EQ(after.server, survivor);
}

// Records every kLocateStep the directory and the router deliver to a
// dead node, then delivers through the network's own transport.
class CorpseStepRecorder final : public Transport {
 public:
  explicit CorpseStepRecorder(Network& net)
      : net_(net), inner_(net.transport()) {
    net_.directory().bind_transport(this);
    net_.router().bind_transport(this);
  }
  ~CorpseStepRecorder() override {
    net_.directory().bind_transport(&inner_);
    net_.router().bind_transport(&inner_);
  }
  [[nodiscard]] const char* name() const override { return "recorder"; }
  [[nodiscard]] Message deliver(const Message& m) override {
    if (m.kind == MessageKind::kLocateStep && !net_.registry().is_live(m.dst))
      ++to_corpses;
    return inner_.deliver(m);
  }
  std::size_t to_corpses = 0;

 private:
  Network& net_;
  Transport& inner_;
};

TEST(HotspotCache, HintNamingACorpseDiesWhenRead) {
  // A fail-stop leaves the hints naming the corpse where they are.  The
  // next query from a node holding one reads it, drops it as a miss and
  // walks on; it sends nothing to the corpse.
  auto g = test::static_ring_network(64, 15, cached_params());
  const Guid guid = make_guid(*g.net, 504);
  const NodeId server = g.ids[3];
  g.net->publish(server, guid);
  const NodeId client = pick_client(g, guid, server);
  const LocateResult warm = g.net->locate(client, guid);
  ASSERT_TRUE(warm.found);
  const NodeId holder = warm.pointer_node;
  ASSERT_FALSE(holder == server);
  ASSERT_FALSE(holder == client);
  LocateCache& cache = g.net->directory().locate_cache();
  ASSERT_EQ(cache.entries_at(client), 1u);
  ASSERT_EQ(cache.entries_at(holder), 0u);

  const std::size_t entries = cache.entries();
  g.net->fail(holder);
  EXPECT_EQ(cache.entries(), entries) << "a death must visit no other LRU";

  const LocateCache::Stats before = cache.stats();
  CorpseStepRecorder recorder(*g.net);
  g.net->locate(client, guid);
  EXPECT_EQ(recorder.to_corpses, 0u) << "a query jumped toward the corpse";
  EXPECT_EQ(cache.stats().hits, before.hits);
  EXPECT_GT(cache.stats().misses, before.misses);
  EXPECT_EQ(cache.stats().fallbacks, before.fallbacks);
}

TEST(HotspotCache, SingleReplicaCrashAgreesWithUncachedTwin) {
  auto make = [](std::size_t cache) {
    return test::static_ring_network(64, 14, cached_params(cache));
  };
  auto cached = make(64);
  auto uncached = make(0);
  const Guid guid = make_guid(*cached.net, 503);
  const NodeId server = cached.ids[7];
  cached.net->publish(server, guid);
  uncached.net->publish(server, guid);
  const NodeId client = pick_client(cached, guid, server);
  ASSERT_TRUE(cached.net->locate(client, guid).found);
  ASSERT_TRUE(uncached.net->locate(client, guid).found);

  cached.net->fail(server);
  uncached.net->fail(server);
  EXPECT_EQ(cached.net->locate(client, guid).found,
            uncached.net->locate(client, guid).found);
  EXPECT_FALSE(cached.net->locate(client, guid).found);
}

TEST(HotspotCache, PointerExpiryAgreesWithUncachedTwin) {
  auto make = [](std::size_t cache) {
    TapestryParams p = cached_params(cache);
    p.pointer_ttl = 4.0;
    return test::static_ring_network(48, 15, p);
  };
  auto cached = make(64);
  auto uncached = make(0);
  const Guid guid = make_guid(*cached.net, 504);
  const NodeId server = cached.ids[9];
  cached.net->publish(server, guid);
  uncached.net->publish(server, guid);
  const NodeId client = pick_client(cached, guid, server);
  ASSERT_TRUE(cached.net->locate(client, guid).found);
  ASSERT_TRUE(uncached.net->locate(client, guid).found);

  // Sweep expired records past the TTL on both twins; no republish runs.
  for (auto* n : {cached.net.get(), uncached.net.get()}) {
    n->events().run_until(5.0);
    n->expire_pointers();
  }
  const LocateResult c = cached.net->locate(client, guid);
  const LocateResult u = uncached.net->locate(client, guid);
  EXPECT_EQ(c.found, u.found);
  EXPECT_FALSE(c.found)
      << "an expired pointer's hint must not outlive the record";
}

// -------------------------------------------------- event-queue interleavings

// Crash the only replica at every phase of an async cached query — before
// it starts, at several in-flight instants, after it completed — and check
// the invariant the cache must preserve at every interleaving: a found
// result implies the query completed before the crash landed (it never
// reports a replica that was already dead), and a crash that precedes the
// query start yields the same miss the uncached twin reports.
TEST(HotspotCache, CrashInterleavingSweepNeverReportsDeadReplica) {
  // Measure the cached query's full in-flight window once.
  double window = 0.0;
  {
    auto g = test::static_ring_network(64, 16, cached_params());
    const Guid guid = make_guid(*g.net, 505);
    g.net->publish(g.ids[3], guid);
    const NodeId client = pick_client(g, guid, g.ids[3]);
    ASSERT_TRUE(g.net->locate(client, guid).found);  // warm caches
    std::optional<LocateResult> r;
    double done = 0.0;
    g.net->locate_async(client, guid, [&](const LocateResult& res) {
      r = res;
      done = g.net->now();
    });
    g.net->events().run();
    ASSERT_TRUE(r.has_value() && r->found);
    window = done;
  }
  ASSERT_GT(window, 0.0);

  for (const double frac : {-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5}) {
    const double offset = frac * window;
    auto run_one = [&](std::size_t cache) {
      auto g = test::static_ring_network(64, 16, cached_params(cache));
      const Guid guid = make_guid(*g.net, 505);
      const NodeId server = g.ids[3];
      g.net->publish(server, guid);
      const NodeId client = pick_client(g, guid, server);
      ASSERT_TRUE(g.net->locate(client, guid).found);  // warm (if cached)
      const double t0 = g.net->now();
      struct Out {
        std::optional<LocateResult> r;
        bool server_alive_at_done = false;
      };
      auto out = std::make_shared<Out>();
      if (offset <= 0.0) {
        g.net->fail(server);
      } else {
        g.net->events().schedule_at(t0 + offset,
                                    [&g, server] { g.net->fail(server); });
      }
      g.net->locate_async(client, guid, [&, out](const LocateResult& res) {
        out->r = res;
        out->server_alive_at_done = g.net->contains(server);
      });
      g.net->events().run();
      ASSERT_TRUE(out->r.has_value());
      if (out->r->found) {
        EXPECT_TRUE(out->server_alive_at_done)
            << "cache=" << cache << " offset=" << offset
            << ": found a replica that was already dead";
      }
      if (offset <= 0.0) {
        EXPECT_FALSE(out->r->found)
            << "cache=" << cache
            << ": crash before the query started must miss";
      }
    };
    run_one(64);  // cached
    run_one(0);   // uncached control obeys the same invariant
  }
}

// ------------------------------------------------------------ HotspotManager

TEST(HotspotManager, PromotesOnDemandAndDemotesOnDecay) {
  auto g = test::static_ring_network(64, 17, small_params());
  const Guid guid = make_guid(*g.net, 506);
  const NodeId server = g.ids[3];
  g.net->publish(server, guid);

  HotspotParams hp;
  hp.half_life = 1.0;
  hp.promote_threshold = 6.0;
  hp.demote_threshold = 2.0;
  hp.max_extra_replicas = 2;
  hp.check_interval = 1.0;
  HotspotManager mgr(g.net->registry(), g.net->directory(), g.net->events(),
                     hp, /*synchronous=*/true);

  ASSERT_EQ(g.net->servers_of(guid).size(), 1u);
  // Sustained demand from a handful of clients crosses the threshold and
  // publishes extra replicas at the heaviest demand sites.
  for (int round = 0; round < 10; ++round)
    for (int c = 10; c < 14; ++c)
      mgr.record_query(guid, g.ids[static_cast<std::size_t>(c)], true);
  EXPECT_GT(mgr.stats().promotions, 0u);
  const auto promoted = g.net->servers_of(guid);
  EXPECT_EQ(promoted.size(), 1u + mgr.stats().extra_live);
  EXPECT_GT(promoted.size(), 1u);
  // Extra replicas land at demand sites, not at the original server.
  for (const NodeId& s : promoted)
    if (!(s == server)) {
      const bool at_site =
          std::any_of(g.ids.begin() + 10, g.ids.begin() + 14,
                      [&](const NodeId& c) { return c == s; });
      EXPECT_TRUE(at_site);
    }

  // Demand stops; decay over a few half-lives demotes the extras through
  // the ordinary unpublish machinery, one per tick.
  mgr.start();
  g.net->events().run_until(g.net->now() + 12.0);
  mgr.stop();
  EXPECT_EQ(mgr.stats().extra_live, 0u);
  EXPECT_EQ(mgr.stats().demotions, mgr.stats().promotions);
  EXPECT_EQ(g.net->servers_of(guid).size(), 1u)
      << "decayed demand must withdraw every extra replica";
}

TEST(LocateCache, ExpiryEdgesAreInclusive) {
  // §6.5 conformance: a record whose deadline equals the clock is already
  // expired (the store treats now == expires_at as dead), so the cache
  // must agree on BOTH edges — never serve a hint at its deadline, never
  // admit an entry born at its deadline.
  const IdSpec spec{4, 8};
  LocateCache cache(spec, 8);
  const NodeId at(spec, 0x11);
  const Guid g(spec, 7);
  cache.insert(at, g,
               LocateCache::Entry{g, NodeId(spec, 0x22), NodeId(spec, 0x33),
                                  /*expires=*/5.0},
               /*now=*/0.0);
  EXPECT_TRUE(cache.lookup(at, g, 4.999).has_value());
  EXPECT_FALSE(cache.lookup(at, g, 5.0).has_value())
      << "now == expires must already be a miss, matching the store edge";
  EXPECT_EQ(cache.stats().expired, 1u);
  // Born exactly at the deadline: never cached at all.
  cache.insert(at, g,
               LocateCache::Entry{g, NodeId(spec, 0x22), NodeId(spec, 0x33),
                                  /*expires=*/1.0},
               /*now=*/1.0);
  EXPECT_EQ(cache.entries_at(at), 0u)
      << "an entry expiring at insertion time must be rejected";
}

TEST(HotspotManager, CapEvictsColdestInsteadOfDroppingNewDemand) {
  // At max_tracked, new demand must displace the coldest replica-free
  // state — not be silently ignored (the old behavior starved every
  // object that got hot after the cap filled).
  auto g = test::static_ring_network(32, 19, small_params());
  HotspotParams hp;
  hp.max_tracked = 3;
  HotspotManager mgr(g.net->registry(), g.net->directory(), g.net->events(),
                     hp, /*synchronous=*/true);
  auto guid = [&](std::uint64_t v) { return make_guid(*g.net, 600 + v); };
  // Distinct weights: g0 is the coldest.
  mgr.record_query(guid(0), g.ids[4], true);
  for (int i = 0; i < 2; ++i) mgr.record_query(guid(1), g.ids[4], true);
  for (int i = 0; i < 3; ++i) mgr.record_query(guid(2), g.ids[4], true);
  ASSERT_EQ(mgr.stats().tracked, 3u);

  mgr.record_query(guid(3), g.ids[5], true);
  EXPECT_EQ(mgr.stats().tracked, 3u);
  EXPECT_EQ(mgr.stats().cold_evictions, 1u);
  EXPECT_EQ(mgr.stats().track_drops, 0u);
  EXPECT_EQ(mgr.demand(guid(0)), 0.0) << "the coldest state was reclaimed";
  EXPECT_NEAR(mgr.demand(guid(3)), 1.0, 1e-9) << "new demand is tracked";

  // States that own extra replicas are not evictable: when every tracked
  // object holds replicas, overflow demand is counted as dropped instead.
  HotspotParams flash;
  flash.max_tracked = 1;
  flash.promote_threshold = 2.0;
  flash.demote_threshold = 0.5;
  flash.max_extra_replicas = 1;
  HotspotManager mgr2(g.net->registry(), g.net->directory(), g.net->events(),
                      flash, /*synchronous=*/true);
  const Guid hot = guid(8);
  g.net->publish(g.ids[2], hot);
  for (int i = 0; i < 4; ++i) mgr2.record_query(hot, g.ids[6], true);
  ASSERT_GT(mgr2.stats().promotions, 0u);
  mgr2.record_query(guid(9), g.ids[7], true);
  EXPECT_EQ(mgr2.stats().cold_evictions, 0u)
      << "a state holding replicas must never be evicted";
  EXPECT_EQ(mgr2.stats().track_drops, 1u);
  EXPECT_EQ(mgr2.demand(guid(9)), 0.0);
}

TEST(HotspotManager, CrashedPromotedSiteIsPrunedAndReplaced) {
  // Crash a promoted replica site mid-flash: the manager must count it
  // pruned from its `extra` book-keeping at once and drop it when the list
  // is next read (no dead id holding a replica slot), and continued demand
  // must publish a replacement at a surviving demand site.
  auto g = test::static_ring_network(64, 20, small_params());
  const Guid guid = make_guid(*g.net, 700);
  const NodeId server = g.ids[3];
  g.net->publish(server, guid);

  HotspotParams hp;
  hp.half_life = 8.0;
  hp.promote_threshold = 6.0;
  hp.max_extra_replicas = 1;
  HotspotManager mgr(g.net->registry(), g.net->directory(), g.net->events(),
                     hp, /*synchronous=*/true);

  for (int round = 0; round < 4; ++round)
    for (int c = 10; c < 14; ++c)
      mgr.record_query(guid, g.ids[static_cast<std::size_t>(c)], true);
  ASSERT_EQ(mgr.stats().promotions, 1u);
  ASSERT_EQ(mgr.stats().extra_live, 1u);

  // Find and crash the promoted site.
  NodeId victim{};
  for (const NodeId& s : g.net->servers_of(guid))
    if (!(s == server)) victim = s;
  g.net->fail(victim);
  EXPECT_GE(mgr.stats().extra_pruned, 1u)
      << "the corpse must count as pruned from `extra`";
  EXPECT_EQ(mgr.stats().extra_live, 0u);

  // The flash is still on: the very next promotions check must replace
  // the lost replica at a live demand site (the dead id must not keep
  // occupying the max_extra_replicas budget).
  for (int round = 0; round < 4; ++round)
    for (int c = 10; c < 14; ++c)
      if (!(g.ids[static_cast<std::size_t>(c)] == victim))
        mgr.record_query(guid, g.ids[static_cast<std::size_t>(c)], true);
  EXPECT_EQ(mgr.stats().promotions, 2u);
  EXPECT_EQ(mgr.stats().extra_live, 1u);
  const auto sites = g.net->servers_of(guid);
  EXPECT_EQ(sites.size(), 2u) << "a replacement replica must be published";
  for (const NodeId& s : sites) EXPECT_TRUE(g.net->contains(s));
}

TEST(HotspotManager, DemandDecaysBetweenQueries) {
  auto g = test::static_ring_network(32, 18, small_params());
  const Guid guid = make_guid(*g.net, 507);
  g.net->publish(g.ids[2], guid);
  HotspotParams hp;
  hp.half_life = 2.0;
  HotspotManager mgr(g.net->registry(), g.net->directory(), g.net->events(),
                     hp, /*synchronous=*/true);
  mgr.record_query(guid, g.ids[4], true);
  mgr.record_query(guid, g.ids[4], true);
  const double d0 = mgr.demand(guid);
  EXPECT_NEAR(d0, 2.0, 1e-9);
  g.net->events().run_until(g.net->now() + 2.0);  // one half-life
  EXPECT_NEAR(mgr.demand(guid), d0 / 2.0, 1e-9);
}

}  // namespace
}  // namespace tap
