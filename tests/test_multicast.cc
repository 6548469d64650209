// Acknowledged multicast (§4.1, Theorem 5): exact prefix coverage, each
// node visited once, spanning-tree message count, completion-time shape.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "src/common/stats.h"
#include "test_util.h"

namespace tap {
namespace {

using test::grow_ring_network;
using test::small_params;
using test::static_ring_network;

// All live ids carrying the first `len` digits of `pattern`.
std::vector<NodeId> prefix_set(const Network& net, const Id& pattern,
                               unsigned len) {
  std::vector<NodeId> out;
  for (const NodeId& id : net.node_ids())
    if (id.matches_prefix(pattern, len)) out.push_back(id);
  return out;
}

TEST(Multicast, ReachesExactlyThePrefixSet) {
  auto g = static_ring_network(256, 60);
  // Use each node's own first digit as a prefix pattern.
  for (unsigned digit = 0; digit < 16; ++digit) {
    const NodeId pattern = g.ids[0].with_digit(0, digit);
    const auto expected = prefix_set(*g.net, pattern, 1);
    if (expected.empty()) continue;
    std::multiset<std::uint64_t> visited;
    g.net->multicast(expected.front(), pattern, 1,
                     [&](NodeId y) { visited.insert(y.value()); });
    std::multiset<std::uint64_t> want;
    for (const NodeId& id : expected) want.insert(id.value());
    EXPECT_EQ(visited, want) << "digit " << digit;
  }
}

TEST(Multicast, ReachesEveryPrefixMemberAtRedundancyOne) {
  // At R = 1 each own-digit slot lists only its owner, however many nodes
  // share the next digit; Property 1 holds on the static tables, so the
  // multicast must still reach them.  From every node at every prefix
  // length, at radix 2 and 4: exactly the live nodes with the prefix,
  // each once.
  for (const IdSpec id : {IdSpec{1, 12}, IdSpec{2, 6}}) {
    SCOPED_TRACE("radix " + std::to_string(id.radix()));
    TapestryParams p = small_params();
    p.id = id;
    p.redundancy = 1;
    auto g = static_ring_network(96, 71, p);
    for (const NodeId& start : g.ids) {
      for (unsigned len = 0; len <= id.num_digits; ++len) {
        std::multiset<std::uint64_t> visited;
        g.net->multicast(start, start, len,
                         [&](NodeId y) { visited.insert(y.value()); });
        std::multiset<std::uint64_t> want;
        for (const NodeId& y : prefix_set(*g.net, start, len))
          want.insert(y.value());
        ASSERT_EQ(visited, want)
            << "from " << start.to_string() << " at prefix length " << len;
      }
    }
  }
}

TEST(Multicast, EachNodeVisitedExactlyOnce) {
  auto g = static_ring_network(200, 61);
  std::map<std::uint64_t, int> count;
  g.net->multicast(g.ids[0], g.ids[0], 0, [&](NodeId y) { ++count[y.value()]; });
  EXPECT_EQ(count.size(), 200u);
  for (const auto& [id, c] : count) EXPECT_EQ(c, 1) << id;
}

TEST(Multicast, MessageCountIsSpanningTree) {
  // Collapsing self-messages, k nodes are covered by k-1 tree edges, each
  // carrying a forward and an acknowledgment: exactly 2(k-1) messages.
  auto g = static_ring_network(128, 62);
  MulticastStats stats =
      g.net->multicast(g.ids[0], g.ids[0], 0, [](NodeId) {});
  EXPECT_EQ(stats.reached, 128u);
  EXPECT_EQ(stats.messages, 2u * (128u - 1u));
}

TEST(Multicast, SingletonPrefixVisitsOnlyStart) {
  auto g = static_ring_network(64, 63);
  // The full id of a node is a prefix only it carries.
  MulticastStats stats = g.net->multicast(
      g.ids[5], g.ids[5], g.net->params().id.num_digits, [](NodeId) {});
  EXPECT_EQ(stats.reached, 1u);
  EXPECT_EQ(stats.messages, 0u);
  EXPECT_DOUBLE_EQ(stats.completion, 0.0);
}

TEST(Multicast, StartMustCarryThePrefix) {
  auto g = static_ring_network(64, 64);
  // Find a node whose first digit differs from ids[0]'s.
  NodeId other{};
  for (const NodeId& id : g.ids)
    if (id.digit(0) != g.ids[0].digit(0)) other = id;
  ASSERT_TRUE(other.valid());
  EXPECT_THROW(
      g.net->multicast(other, g.ids[0], 1, [](NodeId) {}),
      CheckError);
}

TEST(Multicast, CompletionIsBelowTotalTraffic) {
  // Fan-out runs in parallel: the longest chain is shorter than the summed
  // traffic whenever the tree branches.
  auto g = static_ring_network(256, 65);
  MulticastStats stats =
      g.net->multicast(g.ids[0], g.ids[0], 0, [](NodeId) {});
  EXPECT_LT(stats.completion, stats.traffic);
  EXPECT_GT(stats.completion, 0.0);
}

TEST(Multicast, ExcludedNodeNeitherVisitedNorForwarded) {
  auto g = static_ring_network(128, 66);
  const NodeId excluded = g.ids[17];
  std::set<std::uint64_t> visited;
  g.net->multicast(g.ids[0], g.ids[0], 0,
                   [&](NodeId y) { visited.insert(y.value()); }, nullptr,
                   {excluded});
  EXPECT_EQ(visited.count(excluded.value()), 0u);
  EXPECT_EQ(visited.size(), 127u);
}

TEST(Multicast, WorksOnGrownNetworks) {
  auto g = grow_ring_network(96, 67);
  std::set<std::uint64_t> visited;
  MulticastStats stats = g.net->multicast(
      g.ids[0], g.ids[0], 0, [&](NodeId y) { visited.insert(y.value()); });
  EXPECT_EQ(stats.reached, 96u);
  EXPECT_EQ(visited.size(), 96u);
}

TEST(Multicast, TraceAccountsTraffic) {
  auto g = static_ring_network(64, 68);
  Trace t;
  MulticastStats stats =
      g.net->multicast(g.ids[0], g.ids[0], 0, [](NodeId) {}, &t);
  EXPECT_EQ(t.messages(), stats.messages);
  EXPECT_DOUBLE_EQ(t.latency(), stats.traffic);
}

TEST(Multicast, SkipsDeadBranchMembersBestEffort) {
  auto g = static_ring_network(96, 69);
  // Fail a node, then multicast from another: the corpse must not be
  // visited; the rest should still be covered because the static tables
  // hold R = 3 members per slot.
  const NodeId dead = g.ids[40];
  g.net->fail(dead);
  std::set<std::uint64_t> visited;
  NodeId start = g.ids[0] == dead ? g.ids[1] : g.ids[0];
  g.net->multicast(start, start, 0,
                   [&](NodeId y) { visited.insert(y.value()); });
  EXPECT_EQ(visited.count(dead.value()), 0u);
  EXPECT_EQ(visited.size(), 95u);
}

TEST(Multicast, DeterministicVisitOrder) {
  auto a = static_ring_network(64, 70);
  auto b = static_ring_network(64, 70);
  std::vector<std::uint64_t> va, vb;
  a.net->multicast(a.ids[0], a.ids[0], 0,
                   [&](NodeId y) { va.push_back(y.value()); });
  b.net->multicast(b.ids[0], b.ids[0], 0,
                   [&](NodeId y) { vb.push_back(y.value()); });
  EXPECT_EQ(va, vb);
}

}  // namespace
}  // namespace tap
