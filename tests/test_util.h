// Shared helpers for the test suite: canonical parameter sets and builders
// for join-grown and statically built networks over the standard spaces.
#pragma once

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/metric/euclidean.h"
#include "src/metric/ring.h"
#include "src/metric/torus.h"
#include "src/metric/transit_stub.h"
#include "src/tapestry/fingerprint.h"
#include "src/tapestry/network.h"

namespace tap::test {

/// Applies the TAP_STORE environment override — the CI backend matrix runs
/// the directory/churn test binaries once per value: "memory" (default),
/// "sharded", "persist", "replicated", "replicated+persist".  Every call
/// hands the disk-backed backends a fresh scratch directory (under
/// TAP_STORE_DIR or the system temp dir): two networks in one test must
/// never recover each other's WALs.
inline void apply_store_env(TapestryParams& p) {
  const char* s = std::getenv("TAP_STORE");
  if (s == nullptr) return;
  const std::string backend(s);
  if (backend.empty() || backend == "memory") return;
  if (backend == "sharded") {
    p.store_backend = StoreBackend::kSharded;
    return;
  }
  if (backend == "replicated") {
    p.store_backend = StoreBackend::kReplicated;
    return;
  }
  TAP_CHECK(backend == "persist" || backend == "replicated+persist",
            "TAP_STORE must be memory|sharded|persist|replicated|"
            "replicated+persist");
  p.store_backend = backend == "persist"
                        ? StoreBackend::kPersistent
                        : StoreBackend::kReplicatedPersistent;
  static std::atomic<unsigned> counter{0};
  const char* base = std::getenv("TAP_STORE_DIR");
  const std::filesystem::path root =
      base != nullptr ? std::filesystem::path(base)
                      : std::filesystem::temp_directory_path();
  p.store_dir = (root / ("tap_store_" + std::to_string(::getpid()) + "_" +
                         std::to_string(counter++)))
                    .string();
  // Scratch dirs accumulate one WAL per node; sweep them when the test
  // binary exits (all Networks are gone by then) so repeated local runs
  // don't litter the temp dir.
  struct Sweeper {
    std::vector<std::string> dirs;
    std::mutex mu;
    ~Sweeper() {
      for (const std::string& d : dirs) {
        std::error_code ec;
        std::filesystem::remove_all(d, ec);  // best-effort
      }
    }
  };
  static Sweeper sweeper;
  std::lock_guard<std::mutex> lock(sweeper.mu);
  sweeper.dirs.push_back(p.store_dir);
}

/// Applies the TAP_TRANSPORT environment override — the CI transport
/// matrix runs the suite once per value: "direct" (default) and
/// "loopback" (every inter-node message round-trips through the Datagram
/// codec; see docs/transport.md).
inline void apply_transport_env(TapestryParams& p) {
  const char* s = std::getenv("TAP_TRANSPORT");
  if (s == nullptr) return;
  const std::string kind(s);
  if (kind.empty() || kind == "direct") return;
  TAP_CHECK(kind == "loopback", "TAP_TRANSPORT must be direct|loopback");
  p.transport = TransportKind::kLoopback;
}

inline TapestryParams small_params(RoutingMode mode = RoutingMode::kTapestryNative) {
  TapestryParams p;
  p.id = IdSpec{4, 8};  // radix 16, 8 digits
  p.redundancy = 3;
  p.routing = mode;
  apply_store_env(p);
  apply_transport_env(p);
  return p;
}

/// A network whose nodes all arrived through the dynamic join protocol.
struct GrownNetwork {
  std::unique_ptr<MetricSpace> space;
  std::unique_ptr<Network> net;
  std::vector<NodeId> ids;
};

inline GrownNetwork grow_ring_network(std::size_t n, std::uint64_t seed,
                                      TapestryParams params) {
  GrownNetwork g;
  Rng rng(seed);
  // 64 spare locations so tests can add nodes beyond the initial n.
  g.space = std::make_unique<RingMetric>(n + 64, rng);
  g.net = std::make_unique<Network>(*g.space, params, seed ^ 0xabcdef);
  g.ids.push_back(g.net->bootstrap(0));
  for (std::size_t i = 1; i < n; ++i) g.ids.push_back(g.net->join(i));
  return g;
}

inline GrownNetwork grow_ring_network(std::size_t n, std::uint64_t seed = 42) {
  return grow_ring_network(n, seed, small_params());
}

/// A network built by the static (oracle) constructor — the ground truth.
inline GrownNetwork static_ring_network(std::size_t n, std::uint64_t seed,
                                        TapestryParams params) {
  GrownNetwork g;
  Rng rng(seed);
  g.space = std::make_unique<RingMetric>(n + 64, rng);
  g.net = std::make_unique<Network>(*g.space, params, seed ^ 0xabcdef);
  for (std::size_t i = 0; i < n; ++i) g.ids.push_back(g.net->insert_static(i));
  g.net->rebuild_static_tables();
  return g;
}

inline GrownNetwork static_ring_network(std::size_t n,
                                        std::uint64_t seed = 42) {
  return static_ring_network(n, seed, small_params());
}

inline Guid make_guid(const Network& net, std::uint64_t raw) {
  const IdSpec spec = net.params().id;
  return Guid(spec, splitmix64(raw) & spec.mask());
}

/// A 96-node grown (`grown`) or 128-node static ring with 48 objects
/// published on nodes that survive 16 fail-stops, left unswept: the
/// objects' pointers make a sweep's purges reroute, and a serial sweep's
/// reroutes run lazy repair on other nodes mid-sweep.
inline GrownNetwork fail_stopped_ring(bool grown, std::uint64_t seed,
                                      TapestryParams params) {
  GrownNetwork g = grown ? grow_ring_network(96, seed, params)
                         : static_ring_network(128, seed, params);
  std::vector<NodeId> pool = g.ids;
  Rng rng(seed ^ 0x5eed);
  std::vector<NodeId> victims;
  for (int i = 0; i < 16; ++i) {
    const std::size_t k = rng.next_u64(pool.size());
    victims.push_back(pool[k]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(k));
  }
  for (std::uint64_t i = 0; i < 48; ++i)
    g.net->publish(pool[rng.next_u64(pool.size())], make_guid(*g.net, 900 + i));
  for (const NodeId& v : victims) g.net->fail(v);
  return g;
}

/// No live node holds a §4.4 pin: every insertion released its pins.
inline void expect_no_pins(const Network& net) {
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

/// Property 1 as a value, for loops that stop at the first break.
inline bool property1_holds(const Network& net) {
  try {
    net.check_property1();
    return true;
  } catch (const CheckError&) {
    return false;
  }
}

/// A hole no repair opened: slot (level, digit) of `owner`, whose only
/// member was unlinked by hand.  The member is live, so Property 1 stays
/// broken until a heartbeat sweep's fill pass relinks it.
struct Hole {
  NodeId owner{};
  NodeId member{};
  unsigned level = 0;
  unsigned digit = 0;
};

/// Opens a Hole at the first slot, in node_ids() order and other than its
/// owner's own digit, that lists exactly one member.
inline Hole unlink_sole_member(Network& net) {
  for (const NodeId& id : net.node_ids()) {
    const RoutingTable& t = net.node(id).table();
    for (unsigned l = 0; l < t.levels(); ++l) {
      for (unsigned j = 0; j < t.radix(); ++j) {
        if (j == id.digit(l) || t.at(l, j).size() != 1) continue;
        const Hole h{id, t.at(l, j).entries()[0].id, l, j};
        tap::unlink(net.registry(), net.node(id), l, h.member);
        return h;
      }
    }
  }
  TAP_CHECK(false, "no slot lists exactly one member");
  return {};
}

/// What one heartbeat sweep owes the mesh as it stands: one push per pair
/// of live nodes linked in either direction, one per distinct (live node,
/// corpse backpointer holder) pair, and one probe per distinct (live
/// node, dead member) pair.
struct SweepPairs {
  std::size_t pushes = 0;
  std::size_t probes = 0;
};

inline SweepPairs sweep_pairs(const Network& net) {
  SweepPairs p;
  p.pushes = live_linked_pairs(net);
  for (const auto& n : net.registry().nodes()) {
    if (!n->alive) continue;
    for (const NodeId& h : n->table().all_backpointers())
      if (!net.registry().is_live(h)) ++p.pushes;
    for (const NodeId& m : n->table().all_neighbors())
      if (!net.registry().is_live(m)) ++p.probes;
  }
  return p;
}

/// Tombstones free exactly what nothing live names: a corpse no live node
/// lists or keeps a backpointer to has no members left, and one a live
/// node links with keeps its table.
inline void expect_tombstones_follow_links(const Network& net) {
  const TombstoneCensus c = tombstone_census(net);
  EXPECT_EQ(c.unlinked_freed, c.unlinked)
      << "a corpse nothing live names kept its table";
  EXPECT_EQ(c.linked_with_members, c.linked)
      << "a corpse a live node links with lost its table";
}

}  // namespace tap::test
