// Concurrent overlay construction: the bulk pipeline (register_bulk +
// parallel rebuild_static_tables + publish_batch) must produce bit-identical
// results for every worker count and match the serial paths exactly.  The
// pivot-ordered table build must equal an every-candidate reference scan
// on every space.  This binary is the ThreadSanitizer CI target for the
// parallel-build / batch-publish / thread_pool machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <vector>

#include "src/metric/general.h"
#include "src/sim/thread_pool.h"
#include "src/tapestry/fingerprint.h"
#include "test_util.h"

namespace tap {
namespace {

using test::make_guid;
using test::small_params;

struct BulkNetwork {
  std::unique_ptr<MetricSpace> space;
  std::unique_ptr<Network> net;
  std::vector<NodeId> ids;
};

BulkNetwork bulk_ring_network(std::size_t n, std::uint64_t seed,
                              std::size_t workers,
                              TapestryParams params = small_params()) {
  BulkNetwork b;
  Rng rng(seed);
  b.space = std::make_unique<RingMetric>(n + 64, rng);
  b.net = std::make_unique<Network>(*b.space, params, seed ^ 0xabcdef);
  std::vector<Location> locs(n);
  for (std::size_t i = 0; i < n; ++i) locs[i] = i;
  b.ids = b.net->insert_static_bulk(locs, workers);
  b.net->rebuild_static_tables(workers);
  return b;
}

// ---------------------------------------------------------------------
// Determinism: same seed + any thread count => identical tables
// ---------------------------------------------------------------------

TEST(ParallelBuild, DeterministicAcrossWorkerCounts) {
  const std::size_t n = 500;
  const auto reference = bulk_ring_network(n, 6, 1);
  const std::uint64_t want = fingerprint_tables(*reference.net);
  for (const std::size_t workers : {2ul, 3ul, 4ul, 8ul}) {
    const auto built = bulk_ring_network(n, 6, workers);
    EXPECT_EQ(fingerprint_tables(*built.net), want)
        << "tables diverged at " << workers << " workers";
    EXPECT_EQ(built.ids, reference.ids)
        << "id sequence diverged at " << workers << " workers";
  }
}

TEST(ParallelBuild, BulkPipelineMatchesSerialStaticBuild) {
  // Same seed: insert_static one by one + serial rebuild vs the bulk
  // registration + 4-worker rebuild.  The id draws and the final mesh
  // must be identical.
  const std::size_t n = 400;
  auto serial = test::static_ring_network(n, 9);
  auto bulk = bulk_ring_network(n, 9, 4);
  EXPECT_EQ(serial.ids, bulk.ids);
  EXPECT_EQ(fingerprint_tables(*serial.net), fingerprint_tables(*bulk.net));
}

TEST(ParallelBuild, SatisfiesOverlayInvariants) {
  auto b = bulk_ring_network(600, 12, 4);
  b.net->check_property1();
  b.net->check_backpointer_symmetry();
  // The static oracle is Property 2 (locality) by construction.
  EXPECT_DOUBLE_EQ(b.net->property2_quality(), 1.0);
}

// ---------------------------------------------------------------------
// Pivot-ordered build == every-candidate reference
// ---------------------------------------------------------------------

/// Every-candidate reference for the static builder: every live node is
/// offered to every slot it qualifies for, serially, then backpointers are
/// the inverse of the forward links.
void rebuild_exhaustive(Network& net) {
  NodeRegistry& reg = net.registry();
  const TapestryParams& p = net.params();
  std::vector<TapestryNode*> live;
  for (const auto& n : reg.nodes())
    if (n->alive) live.push_back(n.get());
  for (TapestryNode* n : live)
    n->table() = RoutingTable(p.id, n->id(), p.redundancy);
  for (TapestryNode* n : live) {
    for (TapestryNode* cand : live) {
      if (cand == n) continue;
      const double d = reg.dist(*n, *cand);
      // cand qualifies for level l while it shares n's first l digits.
      for (unsigned l = 0; l < p.id.num_digits; ++l) {
        if (n->id().prefix_value(l) != cand->id().prefix_value(l)) break;
        n->table().consider(l, cand->id().digit(l), cand->id(), d);
      }
    }
  }
  for (TapestryNode* owner : live)
    for (unsigned l = 0; l < p.id.num_digits; ++l)
      for (const NodeId& member : owner->table().row_members(l))
        if (!(member == owner->id()))
          reg.find(member)->table().add_backpointer(l, owner->id());
}

/// Integer Manhattan distance on a side x side grid: many nodes sit at
/// equal distance, so slot cutoffs land on ties the id order must break.
class ManhattanGrid final : public MetricSpace {
 public:
  explicit ManhattanGrid(std::size_t side) : side_(side) {}
  [[nodiscard]] std::size_t size() const noexcept override {
    return side_ * side_;
  }
  [[nodiscard]] double distance(Location a, Location b) const override {
    const auto axis = [](std::size_t u, std::size_t v) {
      return static_cast<double>(u > v ? u - v : v - u);
    };
    return axis(a % side_, b % side_) + axis(a / side_, b / side_);
  }
  [[nodiscard]] std::string name() const override { return "manhattan"; }

 private:
  std::size_t side_;
};

std::unique_ptr<MetricSpace> matrix_space(const std::string& kind,
                                          std::size_t n, Rng& rng) {
  if (kind == "ring") return std::make_unique<RingMetric>(n, rng);
  if (kind == "torus") return std::make_unique<Torus2D>(n, rng);
  if (kind == "transit-stub")
    return std::make_unique<TransitStubMetric>(n, rng);
  if (kind == "euclid6d") return std::make_unique<HighDimEuclidean>(n, 6, rng);
  if (kind == "two-cluster") return std::make_unique<TwoClusterMetric>(n, rng);
  if (kind == "manhattan")
    return std::make_unique<ManhattanGrid>(
        static_cast<std::size_t>(std::ceil(std::sqrt(double(n)))));
  ADD_FAILURE() << "unknown space " << kind;
  return nullptr;
}

TEST(ParallelBuild, PivotOrderedBuildMatchesExhaustiveReference) {
  const std::size_t n = 300;
  for (const std::string kind : {"ring", "torus", "transit-stub", "euclid6d",
                                 "two-cluster", "manhattan"}) {
    for (const unsigned r : {1u, 3u, 5u}) {
      for (const bool tombstones : {false, true}) {
        SCOPED_TRACE(kind + " R=" + std::to_string(r) +
                     (tombstones ? " with tombstones" : ""));
        Rng rng(r * 131 + (tombstones ? 7 : 0));
        const auto space = matrix_space(kind, n, rng);
        ASSERT_NE(space, nullptr);
        TapestryParams params;
        params.id = IdSpec{4, 8};
        params.redundancy = r;
        Network net(*space, params, 40 + r);
        std::vector<Location> locs(n);
        for (std::size_t i = 0; i < n; ++i) locs[i] = i;
        const std::vector<NodeId> ids = net.insert_static_bulk(locs, 2);
        if (tombstones)
          for (std::size_t i = 0; i < ids.size(); i += 7)
            net.registry().mark_dead(net.registry().checked(ids[i]));

        rebuild_exhaustive(net);
        const std::uint64_t want = fingerprint_tables(net);
        for (const std::size_t workers : {1ul, 4ul}) {
          net.rebuild_static_tables(workers);
          EXPECT_EQ(fingerprint_tables(net), want)
              << "diverged at " << workers << " workers";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// publish_batch: concurrent drain == serial publish loop
// ---------------------------------------------------------------------

TEST(ParallelBuild, PublishBatchMatchesSerialPublish) {
  const std::size_t n = 300, objects = 120;
  auto a = bulk_ring_network(n, 15, 2);
  auto b = bulk_ring_network(n, 15, 4);
  ASSERT_EQ(a.ids, b.ids);

  std::vector<ObjectDirectory::PublishRequest> batch;
  Rng wl(99);
  for (std::size_t i = 0; i < objects; ++i)
    batch.push_back({a.ids[wl.next_u64(a.ids.size())], make_guid(*a.net, i)});

  Trace serial_trace, batch_trace;
  for (const auto& r : batch) a.net->publish(r.server, r.guid, &serial_trace);
  b.net->publish_batch(batch, 4, &batch_trace);

  EXPECT_EQ(fingerprint_stores(*a.net), fingerprint_stores(*b.net));
  EXPECT_EQ(serial_trace.messages(), batch_trace.messages());
  // Latency: same hop multiset, but summed in a different association
  // (per-task subtotals absorbed vs one running accumulator), so equality
  // holds only up to floating-point summation order.
  EXPECT_NEAR(serial_trace.latency(), batch_trace.latency(),
              1e-9 * std::max(1.0, serial_trace.latency()));
  for (const auto& r : batch)
    EXPECT_EQ(a.net->servers_of(r.guid), b.net->servers_of(r.guid));
  // Property 4 (every publish-path node holds the pointer) on the batch
  // result, and every object resolves from everywhere it should.
  b.net->check_property4();
  Rng qr(7);
  for (int q = 0; q < 200; ++q) {
    const auto& r = batch[qr.next_u64(batch.size())];
    EXPECT_TRUE(
        b.net->locate(b.ids[qr.next_u64(b.ids.size())], r.guid).found);
  }
}

TEST(ParallelBuild, PublishBatchDeterministicAcrossWorkers) {
  const std::size_t n = 300, objects = 100;
  std::optional<std::uint64_t> want;
  for (const std::size_t workers : {1ul, 4ul, 8ul}) {
    auto b = bulk_ring_network(n, 22, workers);
    std::vector<ObjectDirectory::PublishRequest> batch;
    Rng wl(5);
    for (std::size_t i = 0; i < objects; ++i)
      batch.push_back(
          {b.ids[wl.next_u64(b.ids.size())], make_guid(*b.net, 500 + i)});
    b.net->publish_batch(batch, workers);
    const std::uint64_t got = fingerprint_stores(*b.net);
    if (!want.has_value()) want = got;
    EXPECT_EQ(got, *want) << "stores diverged at " << workers << " workers";
  }
}

// ---------------------------------------------------------------------
// thread_pool basics backing it all
// ---------------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  constexpr std::size_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  }, 4);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, FirstExceptionPropagates) {
  EXPECT_THROW(
      parallel_for(
          64,
          [](std::size_t i) {
            if (i == 13) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
}

}  // namespace
}  // namespace tap
