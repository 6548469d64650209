// Fault-scenario suite (ChurnScenario's partition / rackfail / burst
// script): replay determinism of each scenario, the availability story
// each one exists to show (degrade under the fault, recover after soft
// state catches up), and byte-identical --metrics-out JSONL streams
// across same-seed runs.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/metric/transit_stub.h"
#include "src/sim/churn_driver.h"
#include "src/sim/metrics.h"
#include "src/tapestry/fingerprint.h"
#include "test_util.h"

namespace tap {
namespace {

using test::small_params;

// Transit-stub sibling of test_util's ring builders — rackfail groups its
// victims by the space's stub domains.
test::GrownNetwork grow_ts_network(std::size_t n, std::uint64_t seed,
                                   TapestryParams params) {
  test::GrownNetwork g;
  Rng rng(seed);
  g.space = std::make_unique<TransitStubMetric>(n + 64, rng);
  g.net = std::make_unique<Network>(*g.space, params, seed ^ 0xabcdef);
  g.ids.push_back(g.net->bootstrap(0));
  for (std::size_t i = 1; i < n; ++i) g.ids.push_back(g.net->join(i));
  return g;
}

ChurnScenario quiet_scenario(std::uint64_t seed) {
  // No background churn: the scripted fault is the only disturbance.
  ChurnScenario sc;
  sc.horizon = 16.0;
  sc.epoch = 4.0;
  sc.join_rate = 0.0;
  sc.leave_rate = 0.0;
  sc.fail_rate = 0.0;
  sc.min_nodes = 24;
  sc.query_rate = 16.0;
  sc.objects = 24;
  sc.replicas = 1;
  sc.republish_interval = 4.0;
  sc.expiry_interval = 2.0;
  sc.heartbeat_interval = 4.0;
  sc.seed = seed;
  return sc;
}

std::size_t count_kind(const std::vector<std::string>& log, char kind) {
  std::size_t n = 0;
  for (const std::string& line : log)
    if (!line.empty() && line[0] == kind) ++n;
  return n;
}

std::string scratch_path(const char* stem) {
  return testing::TempDir() + "tap_" + stem + "_" +
         std::to_string(::getpid()) + ".jsonl";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// -------------------------------------------------------------- partition

TEST(Scenarios, PartitionDegradesThenHealsDeterministically) {
  auto run_once = [](std::vector<std::string>* log) {
    TapestryParams p = small_params();
    p.pointer_ttl = 8.0;
    auto g = test::grow_ring_network(48, 9, p);
    ChurnScenario sc = quiet_scenario(9);
    sc.partition_at = 4.0;   // epoch 1 (4..8) runs fully partitioned
    sc.partition_heal = 10.0;  // republish at 12 refreshes cross-side state
    ChurnDriver driver(*g.net, sc);
    const ChurnReport rep = driver.run();
    *log = driver.event_log();
    EXPECT_FALSE(g.net->partition_active()) << "heal must clear the cut";
    return rep;
  };

  std::vector<std::string> log_a, log_b;
  const ChurnReport a = run_once(&log_a);
  const ChurnReport b = run_once(&log_b);
  EXPECT_EQ(log_a, log_b) << "same seed must replay the same event trace";
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.found, b.found);

  EXPECT_EQ(count_kind(log_a, 'X'), 1u) << "one partition cut";
  EXPECT_EQ(count_kind(log_a, 'H'), 1u) << "one heal";

  // The cut must actually cost availability while it holds...
  ASSERT_EQ(a.epochs.size(), 4u);
  EXPECT_GT(a.epochs[1].queries, 10u);
  EXPECT_LT(a.epochs[1].availability(), 0.95)
      << "a partitioned overlay cannot resolve cross-side queries";
  // ...and the final epoch (heal + one republish round later) recovers.
  EXPECT_GT(a.epochs[3].queries, 10u);
  EXPECT_GT(a.epochs[3].availability(), 0.90)
      << "soft state must restore availability after the heal";
}

TEST(Scenarios, PartitionKeepsMembersAlive) {
  // Partition != death: no fails are recorded and the population at the
  // end matches the population at the start.
  TapestryParams p = small_params();
  p.pointer_ttl = 8.0;
  auto g = test::grow_ring_network(48, 11, p);
  const std::size_t before = g.net->size();
  ChurnScenario sc = quiet_scenario(11);
  sc.partition_at = 4.0;
  sc.partition_heal = 10.0;
  ChurnDriver driver(*g.net, sc);
  const ChurnReport rep = driver.run();
  EXPECT_EQ(rep.fails, 0u);
  EXPECT_EQ(g.net->size(), before);
}

// --------------------------------------------------------------- rackfail

TEST(Scenarios, RackfailKillsOneStubAndRecovers) {
  auto run_once = [](std::vector<std::string>* log, std::size_t* size_after) {
    TapestryParams p = small_params();
    p.pointer_ttl = 8.0;
    auto g = grow_ts_network(64, 13, p);
    ChurnScenario sc = quiet_scenario(13);
    sc.objects = 32;
    sc.rackfail_at = 4.0;
    ChurnDriver driver(*g.net, sc);
    const ChurnReport rep = driver.run();
    *log = driver.event_log();
    *size_after = g.net->size();
    return rep;
  };

  std::vector<std::string> log_a, log_b;
  std::size_t size_a = 0, size_b = 0;
  const ChurnReport a = run_once(&log_a, &size_a);
  const ChurnReport b = run_once(&log_b, &size_b);
  EXPECT_EQ(log_a, log_b) << "same seed must replay the same event trace";
  EXPECT_EQ(size_a, size_b);

  EXPECT_EQ(count_kind(log_a, 'K'), 1u) << "exactly one rack kill";
  EXPECT_GT(a.fails, 0u) << "the rack must have live members to kill";
  EXPECT_EQ(size_a, 64u - a.fails);

  // Availability is over objects that still have a live replica, so after
  // a heartbeat interval of repair the final epoch must be healthy again.
  ASSERT_EQ(a.epochs.size(), 4u);
  EXPECT_GT(a.epochs[3].queries, 10u);
  EXPECT_GT(a.epochs[3].availability(), 0.90)
      << "repair must route around the dead rack";
}

// --------------------------------------------------------------- rootfail

TEST(Scenarios, RootfailKillsObjectRootsDeterministically) {
  auto run_once = [](std::vector<std::string>* log) {
    TapestryParams p = small_params();
    p.pointer_ttl = 8.0;
    auto g = test::grow_ring_network(48, 23, p);
    ChurnScenario sc = quiet_scenario(23);
    sc.popularity = ChurnScenario::Popularity::kZipf;
    sc.rootfail_at = 4.0;
    ChurnDriver driver(*g.net, sc);
    const ChurnReport rep = driver.run();
    *log = driver.event_log();
    return rep;
  };

  std::vector<std::string> log_a, log_b;
  const ChurnReport a = run_once(&log_a);
  const ChurnReport b = run_once(&log_b);
  EXPECT_EQ(log_a, log_b) << "same seed must replay the same event trace";
  EXPECT_EQ(a.fails, b.fails);

  // Every targeted object either lost its root ('O') or was skipped
  // because the root serves the object itself ('o').
  EXPECT_EQ(count_kind(log_a, 'O') + count_kind(log_a, 'o'), 3u);
  EXPECT_GE(count_kind(log_a, 'O'), 1u) << "at least one root must die";
  EXPECT_EQ(a.fails, count_kind(log_a, 'O'));

  // With the default republish backstop running, the final epoch (one
  // republish round after the kills) must be healthy again.
  ASSERT_EQ(a.epochs.size(), 4u);
  EXPECT_GT(a.epochs[3].queries, 10u);
  EXPECT_GT(a.epochs[3].availability(), 0.90)
      << "soft state must re-deposit records at the new surrogate roots";
}

/// The tentpole claim: with the §6.5 republish backstop pushed past the
/// horizon, a memory overlay loses locates to root kills for good, while
/// the replicated overlay's quorum reads keep every locate resolving.
TEST(Scenarios, RootfailReplicatedLosesNoLocatesWithoutBackstop) {
  auto run_once = [](StoreBackend backend) {
    TapestryParams p = small_params();
    p.store_backend = backend;
    p.store_dir.clear();
    auto g = test::grow_ring_network(48, 29, p);
    ChurnScenario sc = quiet_scenario(29);
    sc.popularity = ChurnScenario::Popularity::kZipf;
    sc.rootfail_at = 4.0;
    sc.rootfail_count = 6;
    sc.republish_interval = 1000.0;  // backstop disabled for this horizon
    ChurnDriver driver(*g.net, sc);
    return driver.run();
  };

  const ChurnReport mem = run_once(StoreBackend::kMemory);
  const ChurnReport rep = run_once(StoreBackend::kReplicated);
  ASSERT_GT(mem.fails, 0u);
  EXPECT_EQ(mem.fails, rep.fails) << "both runs must kill the same roots";
  ASSERT_GT(rep.queries, 50u);

  // Zero lost locates with replication; without it the kills must show.
  EXPECT_EQ(rep.found, rep.queries)
      << "quorum reads must absorb every root kill";
  EXPECT_GE(rep.found * mem.queries, mem.found * rep.queries)
      << "replicated availability must dominate memory availability";
  EXPECT_LT(mem.availability(), 1.0)
      << "without the backstop the memory overlay must lose locates "
         "(otherwise this test proves nothing)";
}

// ------------------------------------------------------------------ burst

TEST(Scenarios, BurstScalesChurnRateDeterministically) {
  auto run_once = [](std::vector<std::string>* log) {
    TapestryParams p = small_params();
    p.pointer_ttl = 8.0;
    auto g = test::grow_ring_network(48, 17, p);
    ChurnScenario sc = quiet_scenario(17);
    sc.join_rate = 0.4;
    sc.leave_rate = 0.3;
    sc.fail_rate = 0.3;
    sc.burst_every = 4.0;
    sc.burst_len = 2.0;
    sc.burst_factor = 8.0;
    ChurnDriver driver(*g.net, sc);
    const ChurnReport rep = driver.run();
    *log = driver.event_log();
    return rep;
  };

  std::vector<std::string> log_a, log_b;
  const ChurnReport a = run_once(&log_a);
  const ChurnReport b = run_once(&log_b);
  EXPECT_EQ(log_a, log_b) << "same seed must replay the same event trace";
  EXPECT_EQ(a.joins, b.joins);
  EXPECT_EQ(a.leaves, b.leaves);
  EXPECT_EQ(a.fails, b.fails);

  // The toggle events must actually fire, and the bursts must drive real
  // churn (8x rate over the burst windows dominates the quiet stretches).
  EXPECT_GE(count_kind(log_a, 'U'), 2u) << "burst start + end";
  EXPECT_GT(a.joins + a.leaves + a.fails, 20u);
  EXPECT_GT(a.availability(), 0.5);
}

// ------------------------------------------------------- metrics export

TEST(Scenarios, MetricsJsonlIsSeedDeterministic) {
  auto run_once = [](const std::string& path) {
    TapestryParams p = small_params();
    p.pointer_ttl = 8.0;
    auto g = test::grow_ring_network(48, 9, p);
    ChurnScenario sc = quiet_scenario(9);
    sc.join_rate = 0.4;
    sc.leave_rate = 0.3;
    sc.fail_rate = 0.3;
    sc.partition_at = 4.0;
    sc.partition_heal = 10.0;
    sc.metrics_out = path;
    ChurnDriver driver(*g.net, sc);
    driver.run();
  };

  const std::string path_a = scratch_path("metrics_a");
  const std::string path_b = scratch_path("metrics_b");
  run_once(path_a);
  run_once(path_b);
  const std::string a = slurp(path_a);
  const std::string b = slurp(path_b);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "same-seed runs must emit byte-identical JSONL";

  // One line per epoch boundary plus the terminal drain snapshot, each a
  // self-contained JSON object carrying the deterministic metric set.
  std::size_t lines = 0;
  std::istringstream in(a);
  std::string line;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.rfind("{\"t\":", 0), 0u) << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"tapestry_messages_total\":"), std::string::npos);
    EXPECT_NE(line.find("\"tapestry_locate_hops\":"), std::string::npos);
    EXPECT_EQ(line.find("tapestry_repair_wave_seconds"), std::string::npos)
        << "volatile metrics must stay out of the deterministic stream";
  }
  EXPECT_EQ(lines, 5u) << "4 epochs + drain";

  // The stream carries real measurements, not a page of zeros: the last
  // snapshot's locate counter must be positive.
  const std::string last = a.substr(a.rfind("{\"t\":"));
  EXPECT_EQ(last.find("\"tapestry_locate_total\":0,"), std::string::npos);

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(Scenarios, MetricsCountersMatchReport) {
  // The registry's churn counters and the driver's report describe the
  // same events.
  TapestryParams p = small_params();
  p.pointer_ttl = 8.0;
  auto g = test::grow_ring_network(48, 21, p);
  ChurnScenario sc = quiet_scenario(21);
  sc.join_rate = 0.5;
  sc.leave_rate = 0.4;
  sc.fail_rate = 0.3;
  metrics::reset_all();
  ChurnDriver driver(*g.net, sc);
  const ChurnReport rep = driver.run();
  EXPECT_EQ(metrics::churn_joins_total().value(), rep.joins);
  EXPECT_EQ(metrics::churn_leaves_total().value(), rep.leaves);
  EXPECT_EQ(metrics::churn_fails_total().value(), rep.fails);
  EXPECT_EQ(metrics::locate_total().value(), rep.queries);
  EXPECT_EQ(metrics::locate_found_total().value(), rep.found);
  EXPECT_EQ(metrics::locate_hops().count(), rep.queries);
}

// ------------------------------------------------------------- transcript

std::uint64_t double_bits(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

/// The churn transcript's two pins: `state` takes what the run did and
/// found, `msgs` the messages it booked doing so.  A change to message
/// traffic alone moves `msgs` and leaves `state` as it was.
struct TranscriptPins {
  detail::Fnv1a state;
  detail::Fnv1a msgs;
};

void mix_bucket(TranscriptPins& h, const ChurnEpoch& e) {
  for (const double d : {e.t0, e.t1, e.stretch_sum})
    h.state.mix(double_bits(d));
  for (const std::size_t v :
       {e.joins, e.leaves, e.fails, e.queries, e.found,
        e.queries_post_failure, e.found_post_failure, e.queries_skipped,
        e.stretch_n, e.live_nodes})
    h.state.mix(v);
  for (const double s : e.hops.samples()) h.state.mix(double_bits(s));
  h.msgs.mix(e.maintenance_msgs);
  h.msgs.mix(e.churn_msgs);
}

TEST(Scenarios, ChurnTranscriptIsPinned) {
  // Every simulated-time process at once, pinned across commits: churn
  // with bursts, queries, republish, expiry, heartbeats, checkpoint
  // epochs, the hotspot decay tick after a flash crowd, a partition and
  // its heal, a rack kill and a root kill.  The replay tests compare two
  // runs of one build; only constants see a change in the order the
  // processes schedule their events.  Two pins: the state pin (event log,
  // counts, stretch, hops, population, cache and hotspot counters) and
  // the message pin (maintenance and churn messages), so a change that
  // moves only message traffic shows it by keeping the state pin.  A
  // change that alters the churn transcript on purpose updates them and
  // says so.  Memory store and direct transport are set here, not taken
  // from TAP_STORE / TAP_TRANSPORT.
  TapestryParams p;
  p.id = IdSpec{4, 8};
  p.redundancy = 3;
  p.store_backend = StoreBackend::kMemory;
  p.transport = TransportKind::kDirect;
  p.pointer_ttl = 8.0;
  p.locate_cache_size = 32;
  auto g = grow_ts_network(64, 23, p);
  ChurnScenario sc = quiet_scenario(23);
  sc.horizon = 24.0;
  sc.join_rate = 0.5;
  sc.leave_rate = 0.4;
  sc.fail_rate = 0.3;
  sc.popularity = ChurnScenario::Popularity::kZipf;
  sc.flash_at = 5.0;
  sc.hotspot_replication = true;
  sc.partition_at = 6.0;
  sc.partition_heal = 9.0;
  sc.rackfail_at = 13.0;
  sc.rootfail_at = 15.0;
  sc.burst_every = 3.0;
  sc.burst_len = 1.5;
  sc.burst_factor = 4.0;
  const std::string dir = testing::TempDir() + "tap_churn_pin_" +
                          std::to_string(::getpid());
  sc.checkpoint_interval = 5.0;
  sc.checkpoint_dir = dir;
  ChurnDriver driver(*g.net, sc);
  const ChurnReport rep = driver.run();
  std::filesystem::remove_all(dir);

  const std::vector<std::string>& log = driver.event_log();
  for (const char kind : {'C', 'B', 'X', 'H', 'K', 'O', 'U', 'J', 'L', 'F'})
    EXPECT_GT(count_kind(log, kind), 0u) << "no '" << kind << "' event";
  EXPECT_GT(rep.hotspot_promotions, 0u);
  EXPECT_GT(rep.cache_hits, 0u);

  TranscriptPins h;
  for (const std::string& line : log) {
    // The checkpoint directory is per process; the rest of a line is not.
    for (const char c : line.substr(0, line.find(dir)))
      h.state.mix(static_cast<unsigned char>(c));
  }
  for (const ChurnEpoch& e : rep.epochs) mix_bucket(h, e);
  mix_bucket(h, rep.drain);
  h.state.mix(double_bits(rep.stretch_sum));
  for (const std::size_t v :
       {rep.joins, rep.leaves, rep.fails, rep.queries, rep.found,
        rep.queries_post_failure, rep.found_post_failure,
        rep.queries_skipped, rep.stretch_n, rep.live_nodes, rep.load_max,
        rep.load_nodes, rep.cache_hits, rep.cache_misses,
        rep.cache_fallbacks, rep.hotspot_promotions, rep.hotspot_demotions})
    h.state.mix(v);
  for (const double s : rep.hops.samples()) h.state.mix(double_bits(s));
  h.msgs.mix(rep.maintenance_msgs);
  h.msgs.mix(rep.churn_msgs);

  EXPECT_EQ(log.size(), 852u);
  EXPECT_EQ(rep.events_fired, 2520u);
  EXPECT_EQ(h.state.value(), 5472975045923002175ull);
  EXPECT_EQ(h.msgs.value(), 17449761561398216269ull);
}

}  // namespace
}  // namespace tap
