// Identifier-space generality: the algorithms are parameterized by the
// digit width b = 2^digit_bits and the digit count (paper §2: "digits are
// drawn from an alphabet of radix b").  This suite sweeps radix/digit
// configurations — from binary digits to radix 64 — over grown
// networks and checks the full invariant battery plus object location,
// multicast coverage and deletion on each.  The b > c^2 precondition of
// §3 holds comfortably for b >= 16 on the ring (c ~= 2), marginally for
// b = 4; practice matches the paper's "works well anyway" observation.
// Every configuration runs at redundancy R = 1, 2 and 3: R = 1 leaves each
// own-digit slot listing only its owner, which the default R = 3 hides.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/common/stats.h"
#include "src/metric/ring.h"
#include "test_util.h"

namespace tap {
namespace {

struct RadixConfig {
  unsigned digit_bits;
  unsigned num_digits;
  std::string label;
  unsigned r;
};

void PrintTo(const RadixConfig& c, std::ostream* os) { *os << c.label; }

std::vector<RadixConfig> radix_configs() {
  std::vector<RadixConfig> out;
  for (const RadixConfig& c : {RadixConfig{1, 16, "binary16", 0},
                               RadixConfig{2, 12, "quad12", 0},
                               RadixConfig{4, 8, "hex8", 0},
                               RadixConfig{4, 16, "hex16", 0},
                               RadixConfig{6, 5, "b64x5", 0}})
    for (const unsigned r : {1u, 2u, 3u})
      out.push_back({c.digit_bits, c.num_digits,
                     c.label + "_r" + std::to_string(r), r});
  return out;
}

class RadixTest : public ::testing::TestWithParam<RadixConfig> {
 protected:
  test::GrownNetwork grow(std::size_t n, std::uint64_t seed) {
    TapestryParams p;
    p.id = IdSpec{GetParam().digit_bits, GetParam().num_digits};
    p.redundancy = GetParam().r;
    test::GrownNetwork g;
    Rng rng(seed);
    g.space = std::make_unique<RingMetric>(n + 16, rng);
    g.net = std::make_unique<Network>(*g.space, p, seed ^ 0xffee);
    g.ids.push_back(g.net->bootstrap(0));
    for (std::size_t i = 1; i < n; ++i) g.ids.push_back(g.net->join(i));
    return g;
  }

  Guid guid(const Network& net, std::uint64_t raw) {
    return test::make_guid(net, raw);
  }
};

TEST_P(RadixTest, GrownNetworkInvariants) {
  auto g = grow(72, 160);
  g.net->check_property1();
  g.net->check_backpointer_symmetry();
  EXPECT_GT(g.net->property2_quality(), 0.97);
}

TEST_P(RadixTest, RootsUniqueAndLocationWorks) {
  auto g = grow(64, 161);
  Rng rng(1);
  for (int obj = 0; obj < 10; ++obj) {
    const Guid target = guid(*g.net, 100 + obj);
    std::set<std::uint64_t> roots;
    for (const NodeId& src : g.ids)
      roots.insert(g.net->route_to_root(src, target).root.value());
    EXPECT_EQ(roots.size(), 1u);
  }
  for (int obj = 0; obj < 8; ++obj) {
    const Guid target = guid(*g.net, 300 + obj);
    const NodeId server = g.ids[rng.next_u64(g.ids.size())];
    g.net->publish(server, target);
    for (std::size_t c = 0; c < g.ids.size(); c += 5) {
      const LocateResult r = g.net->locate(g.ids[c], target);
      ASSERT_TRUE(r.found);
      EXPECT_EQ(r.server, server);
    }
  }
  g.net->check_property4();
}

TEST_P(RadixTest, MulticastSpanningTreeHolds) {
  auto g = grow(48, 162);
  const MulticastStats stats =
      g.net->multicast(g.ids[0], g.ids[0], 0, [](NodeId) {});
  EXPECT_EQ(stats.reached, 48u);
  EXPECT_EQ(stats.messages, 2u * 47u);
}

TEST_P(RadixTest, ChurnPreservesInvariants) {
  // Mixed joins and leaves over several seeds, Property 1 checked after
  // every one.
  for (std::uint64_t seed = 163; seed < 171; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto g = grow(48, seed);
    Rng rng(seed - 161);
    for (int round = 0; round < 12; ++round) {
      if (rng.bernoulli(0.5) && g.net->size() > 24) {
        auto ids = g.net->node_ids();
        g.net->leave(ids[rng.next_u64(ids.size())]);
      } else {
        g.net->join(48 + static_cast<std::size_t>(round));
      }
      ASSERT_NO_THROW(g.net->check_property1()) << "round " << round;
    }
    g.net->check_backpointer_symmetry();
  }
}

TEST_P(RadixTest, HopCountTracksDigitCapacity) {
  auto g = grow(96, 164);
  Rng rng(3);
  Summary hops;
  for (int q = 0; q < 100; ++q) {
    const NodeId src = g.ids[rng.next_u64(g.ids.size())];
    hops.add(double(g.net->route_to_root(src, guid(*g.net, 500 + q)).hops));
  }
  // Routes resolve one digit per hop plus a small surrogate overhead.
  const double digits_needed =
      std::log2(96.0) / GetParam().digit_bits;
  EXPECT_LE(hops.mean(), digits_needed + 3.0);
  EXPECT_LE(hops.max(), double(GetParam().num_digits));
}

INSTANTIATE_TEST_SUITE_P(Configs, RadixTest,
                         ::testing::ValuesIn(radix_configs()),
                         [](const auto& ti) { return ti.param.label; });

}  // namespace
}  // namespace tap
