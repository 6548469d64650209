// Integration soak: sustained, randomized churn — joins, voluntary leaves,
// involuntary failures, publishes, unpublishes, lookups, periodic soft-
// state republish — with invariants audited along the way.  This is the
// "does the whole §3-§6 machinery compose" test.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "src/common/stats.h"
#include "src/sim/churn_driver.h"
#include "test_util.h"

namespace tap {
namespace {

using test::make_guid;
using test::small_params;

class ChurnSoakTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnSoakTest, InvariantsSurviveSustainedChurn) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  RingMetric space(512, rng);
  TapestryParams params = small_params();
  params.pointer_ttl = 50.0;
  Network net(space, params, seed * 31 + 7);

  std::vector<Location> free_locs;
  for (std::size_t i = 128; i < 512; ++i) free_locs.push_back(i);
  net.bootstrap(0);
  for (std::size_t i = 1; i < 128; ++i) net.join(i);

  // Live objects: guid -> live servers (our own mirror of ground truth).
  std::map<std::uint64_t, std::pair<Guid, std::set<std::uint64_t>>> objects;
  int next_obj = 0;
  auto random_node = [&]() {
    auto ids = net.node_ids();
    return ids[rng.next_u64(ids.size())];
  };

  double clock = 0.0;
  int republish_phase = 0;
  for (int step = 0; step < 400; ++step) {
    clock += 0.1;
    net.events().run_until(clock);
    const double dice = rng.next_double();
    if (dice < 0.15 && !free_locs.empty()) {
      // Join at a fresh location.
      const Location loc = free_locs.back();
      free_locs.pop_back();
      net.join(loc);
    } else if (dice < 0.25 && net.size() > 32) {
      // Voluntary departure; our mirror drops its replicas.
      const NodeId victim = random_node();
      const Location loc = net.node(victim).location();
      net.leave(victim);
      free_locs.push_back(loc);
      for (auto& [key, entry] : objects) entry.second.erase(victim.value());
    } else if (dice < 0.32 && net.size() > 32) {
      // Involuntary failure; replicas on the corpse are gone.
      const NodeId victim = random_node();
      net.fail(victim);
      for (auto& [key, entry] : objects) entry.second.erase(victim.value());
    } else if (dice < 0.50) {
      // Publish a new object (or another replica of an old one).
      const NodeId server = random_node();
      if (!objects.empty() && rng.bernoulli(0.3)) {
        auto it = objects.begin();
        std::advance(it, rng.next_u64(objects.size()));
        net.publish(server, it->second.first);
        it->second.second.insert(server.value());
      } else {
        const Guid guid = make_guid(net, 10000 + next_obj++);
        net.publish(server, guid);
        objects[guid.value()] = {guid, {server.value()}};
      }
    } else if (dice < 0.58 && !objects.empty()) {
      // Unpublish a replica.
      auto it = objects.begin();
      std::advance(it, rng.next_u64(objects.size()));
      if (!it->second.second.empty()) {
        const NodeId server(net.params().id, *it->second.second.begin());
        if (net.contains(server)) net.unpublish(server, it->second.first);
        it->second.second.erase(server.value());
      }
    } else if (!objects.empty()) {
      // Lookup: any object with a live replica and a refreshed pointer
      // path must be found.  After failures, availability is restored at
      // the republish boundary, so only assert hard guarantees right
      // after a republish round.
      auto it = objects.begin();
      std::advance(it, rng.next_u64(objects.size()));
      const bool has_live_replica = !it->second.second.empty();
      const LocateResult r = net.locate(random_node(), it->second.first);
      if (!has_live_replica) {
        EXPECT_FALSE(r.found) << "located an object with no live replica";
      }
    }

    if (step % 50 == 49) {
      // Soft-state boundary: heartbeat maintenance discovers the corpses,
      // expired pointers are purged and everything is republished — then
      // the strong guarantees must hold.
      net.heartbeat_sweep();
      net.expire_pointers();
      net.republish_all();
      ++republish_phase;
      net.check_property1();
      net.check_backpointer_symmetry();
      net.check_property4();
      // Every object with a live replica is now locatable from anywhere.
      for (auto& [key, entry] : objects) {
        if (entry.second.empty()) continue;
        const LocateResult r = net.locate(random_node(), entry.first);
        EXPECT_TRUE(r.found)
            << "object " << entry.first.to_string()
            << " lost despite live replicas (phase " << republish_phase << ")";
      }
    }
  }
  EXPECT_GT(republish_phase, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnSoakTest,
                         ::testing::Values(1ull, 2ull, 3ull),
                         [](const auto& ti) {
                           return "seed" + std::to_string(ti.param);
                         });

TEST(ChurnIntegration, RootsStayUniqueUnderChurn) {
  Rng rng(9);
  RingMetric space(256, rng);
  Network net(space, small_params(), 99);
  net.bootstrap(0);
  for (std::size_t i = 1; i < 96; ++i) net.join(i);
  std::vector<Location> free_locs;
  for (std::size_t i = 96; i < 256; ++i) free_locs.push_back(i);

  for (int round = 0; round < 30; ++round) {
    // Churn a little.
    if (!free_locs.empty() && rng.bernoulli(0.6)) {
      net.join(free_locs.back());
      free_locs.pop_back();
    }
    if (net.size() > 48) {
      auto ids = net.node_ids();
      net.leave(ids[rng.next_u64(ids.size())]);
    }
    // Verify Theorem 2 on a few GUIDs.
    for (int obj = 0; obj < 5; ++obj) {
      const Guid guid = test::make_guid(net, 7000 + obj);
      std::set<std::uint64_t> roots;
      auto ids = net.node_ids();
      for (std::size_t i = 0; i < ids.size(); i += 7)
        roots.insert(net.route_to_root(ids[i], guid).root.value());
      ASSERT_EQ(roots.size(), 1u) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace tap
