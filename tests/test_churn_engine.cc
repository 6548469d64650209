// Event-driven churn engine (§6.5): deterministic replay of scripted
// scenarios, query/repair interleavings the synchronous path cannot
// exhibit, soft-state TTL/republish timer behaviour, and an end-to-end
// soak of the ChurnDriver's event engine.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/sim/churn_driver.h"
#include "test_util.h"

namespace tap {
namespace {

using test::make_guid;
using test::small_params;

ChurnScenario small_scenario(std::uint64_t seed) {
  ChurnScenario sc;
  sc.horizon = 16.0;
  sc.epoch = 4.0;
  sc.join_rate = 0.5;
  sc.leave_rate = 0.4;
  sc.fail_rate = 0.3;
  sc.min_nodes = 24;
  sc.query_rate = 12.0;
  sc.objects = 24;
  sc.replicas = 1;
  sc.republish_interval = 4.0;
  sc.expiry_interval = 2.0;
  sc.heartbeat_interval = 4.0;
  sc.seed = seed;
  return sc;
}

// --------------------------------------------------------- deterministic replay

TEST(ChurnEngine, SameSeedReplaysIdenticalTraceAndStats) {
  auto run_once = [](std::vector<std::string>* log) {
    TapestryParams p = small_params();
    p.pointer_ttl = 8.0;
    auto g = test::grow_ring_network(48, 7, p);
    ChurnDriver driver(*g.net, small_scenario(7));
    const ChurnReport rep = driver.run();
    *log = driver.event_log();
    return rep;
  };
  std::vector<std::string> log_a, log_b;
  const ChurnReport a = run_once(&log_a);
  const ChurnReport b = run_once(&log_b);

  EXPECT_EQ(log_a, log_b) << "same seed must replay the same event trace";
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.joins, b.joins);
  EXPECT_EQ(a.leaves, b.leaves);
  EXPECT_EQ(a.fails, b.fails);
  EXPECT_EQ(a.maintenance_msgs, b.maintenance_msgs);
  EXPECT_EQ(a.events_fired, b.events_fired);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_EQ(a.epochs[i].queries, b.epochs[i].queries) << "epoch " << i;
    EXPECT_EQ(a.epochs[i].found, b.epochs[i].found) << "epoch " << i;
  }
  // The scenario must actually exercise the machinery.
  EXPECT_GT(a.queries, 50u);
  EXPECT_GT(a.events_fired, 500u);
  EXPECT_GT(log_a.size(), 100u);
}

TEST(ChurnEngine, DifferentSeedsDiverge) {
  auto trace_of = [](std::uint64_t seed) {
    TapestryParams p = small_params();
    p.pointer_ttl = 8.0;
    auto g = test::grow_ring_network(48, seed, p);
    ChurnDriver driver(*g.net, small_scenario(seed));
    driver.run();
    return driver.event_log();
  };
  EXPECT_NE(trace_of(7), trace_of(8));
}

// The full zipf + flash crowd + locate cache + hotspot replication stack
// must replay byte-identically: the popularity table is deterministic, the
// cache and the hotspot manager are RNG-free, so only the scenario's own
// Rng stream drives decisions (ISSUE 6).
TEST(ChurnEngine, ZipfFlashHotspotScenarioReplaysIdentically) {
  auto run_once = [](std::vector<std::string>* log) {
    TapestryParams p = small_params();
    p.pointer_ttl = 8.0;
    p.locate_cache_size = 64;
    auto g = test::grow_ring_network(48, 21, p);
    ChurnScenario sc = small_scenario(21);
    sc.popularity = ChurnScenario::Popularity::kZipf;
    sc.zipf_s = 1.0;
    sc.flash_at = 8.0;
    sc.flash_factor = 1000.0;
    sc.flash_index = 0;
    sc.hotspot_replication = true;
    sc.hotspot.half_life = 2.0;
    sc.hotspot.promote_threshold = 8.0;
    ChurnDriver driver(*g.net, sc);
    const ChurnReport rep = driver.run();
    *log = driver.event_log();
    return rep;
  };
  std::vector<std::string> log_a, log_b;
  const ChurnReport a = run_once(&log_a);
  const ChurnReport b = run_once(&log_b);

  EXPECT_EQ(log_a, log_b) << "zipf + cache + hotspot must replay verbatim";
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_fallbacks, b.cache_fallbacks);
  EXPECT_EQ(a.hotspot_promotions, b.hotspot_promotions);
  EXPECT_EQ(a.hotspot_demotions, b.hotspot_demotions);
  EXPECT_EQ(a.load_max, b.load_max);
  ASSERT_EQ(a.hops.samples().size(), b.hops.samples().size());
  // The skewed workload must actually differ from the uniform one and
  // exercise the new machinery.
  EXPECT_GT(a.queries, 50u);
  EXPECT_GT(a.cache_hits, 0u);
}

// Switching the popularity model changes the drawn targets (the flash
// boost alone reweights the stream), while the uniform default replays the
// pre-zipf workload byte for byte — guarded by the baseline replay test
// above staying green.
TEST(ChurnEngine, ZipfWorkloadDivergesFromUniform) {
  auto log_of = [](bool zipf) {
    TapestryParams p = small_params();
    p.pointer_ttl = 8.0;
    auto g = test::grow_ring_network(48, 23, p);
    ChurnScenario sc = small_scenario(23);
    if (zipf) {
      sc.popularity = ChurnScenario::Popularity::kZipf;
      sc.zipf_s = 1.0;
    }
    ChurnDriver driver(*g.net, sc);
    driver.run();
    return driver.event_log();
  };
  EXPECT_NE(log_of(true), log_of(false));
}

// ------------------------------------------------------------- interleaving

// A locate issued at an instant when *no* live pointer exists anywhere
// succeeds because a republish lands between its hops.  The synchronous
// path executes atomically against one directory snapshot, so from the
// same state the same query can only miss — this outcome is unique to the
// event-driven execution.
TEST(ChurnEngine, LocateObservesRepublishLandingMidFlight) {
  auto make = [] {
    TapestryParams p = small_params();
    p.pointer_ttl = 5.0;
    return test::grow_ring_network(48, 11, p);
  };
  auto sync_twin = make();   // control: stays synchronous
  auto event_twin = make();  // identical construction, same seed

  const Guid guid = make_guid(*sync_twin.net, 4242);
  const NodeId server = sync_twin.ids[5];
  sync_twin.net->publish(server, guid);
  event_twin.net->publish(server, guid);

  // Let every pointer on the publish path pass its TTL.
  sync_twin.net->events().run_until(6.0);
  event_twin.net->events().run_until(6.0);

  // A client other than the root, so the query needs at least one hop.
  const NodeId root = event_twin.net->surrogate_root(guid);
  NodeId client{};
  for (const NodeId& id : event_twin.ids) {
    if (!(id == root) && !(id == server)) {
      client = id;
      break;
    }
  }

  // Control: the atomic locate at t=6 misses — nothing is live.
  EXPECT_FALSE(sync_twin.net->locate(client, guid).found);

  // Event-driven: issue the same query at the same instant, then land a
  // republish while the query is in flight.
  std::optional<LocateResult> result;
  const double t_start = event_twin.net->now();
  event_twin.net->locate_async(client, guid,
                               [&](const LocateResult& r) { result = r; });
  const double t_republish = t_start + 1e-6;
  event_twin.net->events().schedule_at(
      t_republish, [&] { event_twin.net->publish(server, guid); });
  event_twin.net->events().run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->found)
      << "the in-flight query must observe the mid-flight republish";
  EXPECT_GT(result->hops, 0u);
  // The query completed after the republish landed: it genuinely
  // interleaved rather than running before or after it.
  EXPECT_GT(event_twin.net->now(), t_republish);
  // The control network (no republish) still misses at any later time.
  EXPECT_FALSE(sync_twin.net->locate(client, guid).found);
}

// The dual: a query stranded on a node that crashes mid-flight loses that
// attempt.  The synchronous path checks liveness atomically and can never
// park a query on a node that dies under it.
TEST(ChurnEngine, LocateLosesAttemptWhenCarrierDiesMidFlight) {
  TapestryParams p = small_params();
  auto g = test::grow_ring_network(48, 19, p);
  const Guid guid = make_guid(*g.net, 77);
  const NodeId server = g.ids[3];
  g.net->publish(server, guid);

  // Find the query's first hop from a client and kill it mid-flight.
  const NodeId client = [&] {
    for (const NodeId& id : g.ids)
      if (!(id == server)) return id;
    return g.ids[0];
  }();
  RouteState state;
  const auto first_hop = g.net->route_step_peek(client, guid, state);
  ASSERT_TRUE(first_hop.has_value()) << "client must not be the root";

  std::optional<LocateResult> result;
  g.net->locate_async(client, guid,
                      [&](const LocateResult& r) { result = r; });
  // The first step fires at t=now (client-side check), the second after
  // the hop delay; crash the first hop in between.
  g.net->events().schedule_in(1e-9, [&] {
    if (g.net->contains(*first_hop)) g.net->fail(*first_hop);
  });
  g.net->events().run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->found)
      << "query parked on a crashing node must lose the attempt";
}

// The final pointer -> replica leg is itself event-decomposed: a replica
// that crashes after a query has read its pointer — while the query is
// already travelling toward it — costs the query that attempt.  Before the
// decomposition the leg completed atomically with the pointer read, so
// this interleaving was unobservable.
TEST(ChurnEngine, ReplicaCrashDuringFinalLegLosesQuery) {
  auto make = [] { return test::grow_ring_network(48, 29, small_params()); };

  // Control twin: measure when the untouched query completes and verify
  // it finds the replica.
  auto control = make();
  const Guid guid = [&] {
    // A guid whose publish path gives the final leg at least one hop from
    // some pointer holder that is not the server itself.
    for (std::uint64_t raw = 600;; ++raw) {
      const Guid g = make_guid(*control.net, raw);
      const auto path =
          control.net->router().route_to_root_peek(control.ids[3], g).path;
      if (path.size() >= 3) return g;
    }
  }();
  const NodeId server = control.ids[3];
  control.net->publish(server, guid);
  // Query from a mid-path pointer holder: discovery is local (t = 0), so
  // the whole in-flight window belongs to the final leg.
  const NodeId client =
      control.net->router().route_to_root_peek(server, guid).path[1];
  ASSERT_FALSE(client == server);

  std::optional<LocateResult> control_result;
  double done_time = 0.0;
  control.net->locate_async(client, guid, [&](const LocateResult& r) {
    control_result = r;
    done_time = control.net->now();
  });
  control.net->events().run();
  ASSERT_TRUE(control_result.has_value());
  ASSERT_TRUE(control_result->found);
  EXPECT_EQ(control_result->server, server);
  ASSERT_GT(done_time, 0.0) << "the leg must take simulated time";

  // Crash twin: identical construction and query, but the replica dies
  // halfway through the leg.
  auto crash = make();
  crash.net->publish(server, guid);
  std::optional<LocateResult> crash_result;
  crash.net->locate_async(client, guid,
                          [&](const LocateResult& r) { crash_result = r; });
  crash.net->events().schedule_at(done_time / 2,
                                  [&] { crash.net->fail(server); });
  crash.net->events().run();
  ASSERT_TRUE(crash_result.has_value());
  EXPECT_FALSE(crash_result->found)
      << "replica crashed while the query was in flight toward it";

  // Sanity: the same crash scheduled after completion does not disturb
  // the (identical, hence identically timed) query.
  auto late = make();
  late.net->publish(server, guid);
  std::optional<LocateResult> late_result;
  late.net->locate_async(client, guid,
                         [&](const LocateResult& r) { late_result = r; });
  late.net->events().schedule_at(done_time * 2,
                                 [&] { late.net->fail(server); });
  late.net->events().run();
  ASSERT_TRUE(late_result.has_value());
  EXPECT_TRUE(late_result->found);
}

// ------------------------------------------------------- soft-state timers

TEST(ChurnEngine, RepublishTimerRefreshesSoftState) {
  TapestryParams p = small_params();
  p.pointer_ttl = 4.0;
  auto g = test::grow_ring_network(32, 13, p);
  const Guid guid = make_guid(*g.net, 99);
  g.net->publish(g.ids[3], guid);

  g.net->start_soft_state(/*republish_every=*/2.0, /*expiry_every=*/1.0);
  g.net->events().run_until(11.0);  // well past the original 4.0 deadline
  g.net->stop_soft_state();
  g.net->events().run();  // drain in-flight refresh walks

  EXPECT_TRUE(g.net->locate(g.ids[17], guid).found)
      << "periodic republish must keep the pointer path alive";
  EXPECT_GT(g.net->total_object_pointers(), 0u);
}

TEST(ChurnEngine, ExpiryTimerWithoutRepublishDropsEveryPointer) {
  TapestryParams p = small_params();
  p.pointer_ttl = 4.0;
  auto g = test::grow_ring_network(32, 13, p);
  const Guid guid = make_guid(*g.net, 99);
  g.net->publish(g.ids[3], guid);
  EXPECT_GT(g.net->total_object_pointers(), 0u);

  g.net->start_soft_state(/*republish_every=*/0.0, /*expiry_every=*/1.0);
  g.net->events().run_until(10.0);
  g.net->stop_soft_state();
  g.net->events().run();

  EXPECT_EQ(g.net->total_object_pointers(), 0u)
      << "expiry sweeps must reclaim every stale pointer";
  EXPECT_FALSE(g.net->locate(g.ids[17], guid).found);
}

TEST(ChurnEngine, HeartbeatTimerRepairsCrashDamage) {
  TapestryParams p = small_params();
  auto g = test::grow_ring_network(48, 23, p);
  const Guid guid = make_guid(*g.net, 123);
  const NodeId server = g.ids[7];
  g.net->publish(server, guid);

  // Crash two non-server nodes; the timer-driven sweeps must restore
  // Property 1 without any explicit maintenance call.
  int crashed = 0;
  for (const NodeId& id : g.ids) {
    if (id == server) continue;
    g.net->fail(id);
    if (++crashed == 2) break;
  }
  g.net->start_heartbeats(1.0);
  g.net->events().run_until(2.5);
  g.net->stop_heartbeats();
  g.net->events().run();

  g.net->check_property1();
  EXPECT_TRUE(g.net->locate(g.ids[40], guid).found);
}

// ------------------------------------------------------------- drain bucket

// Regression: epoch_now() used to clamp every post-horizon timestamp into
// the final epoch, so completions of operations still in flight when the
// scenario ended were silently attributed to the last epoch and skewed its
// availability/traffic statistics.  Drained events get a terminal bucket.
TEST(ChurnEngine, DrainedCompletionsLandInTerminalBucketNotLastEpoch) {
  TapestryParams p = small_params();
  p.pointer_ttl = 8.0;
  // Slow hops make in-flight queries span the horizon reliably.
  p.hop_delay_scale = 4.0;
  auto g = test::grow_ring_network(48, 31, p);
  ChurnScenario sc = small_scenario(31);
  sc.query_rate = 40.0;  // a dense tail of queries straddles the horizon
  ChurnDriver driver(*g.net, sc);
  const ChurnReport rep = driver.run();

  // The scenario must genuinely exercise the drain path.
  ASSERT_GT(rep.drain.queries, 0u)
      << "no query completed after the horizon; scenario too tame to "
         "regress-test the drain bucket";
  EXPECT_GE(rep.drain.t1, rep.drain.t0);
  EXPECT_DOUBLE_EQ(rep.drain.t0, rep.epochs.back().t1);

  // Epoch buckets only hold what completed inside their own windows; the
  // drained completions are not clamped into the last epoch.
  std::size_t epoch_queries = 0, epoch_found = 0;
  for (const ChurnEpoch& e : rep.epochs) {
    epoch_queries += e.queries;
    epoch_found += e.found;
  }
  EXPECT_EQ(epoch_queries + rep.drain.queries, rep.queries)
      << "totals must equal epoch buckets plus the drain bucket";
  EXPECT_EQ(epoch_found + rep.drain.found, rep.found);

  // Churn processes stop at the horizon: the drain bucket never records
  // joins/leaves/fails, only completions and their traffic.
  EXPECT_EQ(rep.drain.joins, 0u);
  EXPECT_EQ(rep.drain.leaves, 0u);
  EXPECT_EQ(rep.drain.fails, 0u);

  // And the terminal bucket is replay-deterministic like everything else.
  auto g2 = test::grow_ring_network(48, 31, p);
  ChurnDriver driver2(*g2.net, sc);
  const ChurnReport rep2 = driver2.run();
  EXPECT_EQ(rep.drain.queries, rep2.drain.queries);
  EXPECT_EQ(rep.drain.found, rep2.drain.found);
  EXPECT_EQ(rep.drain.maintenance_msgs, rep2.drain.maintenance_msgs);
}

// ------------------------------------------------------------------- soak

TEST(ChurnEngine, EventEngineSoakEndsConsistent) {
  TapestryParams p = small_params();
  p.pointer_ttl = 8.0;
  auto g = test::grow_ring_network(48, 17, p);
  ChurnDriver driver(*g.net, small_scenario(17));
  const ChurnReport rep = driver.run();

  EXPECT_GT(rep.queries, 50u);
  EXPECT_GE(rep.availability(), 0.5);
  EXPECT_LE(rep.found, rep.queries);
  EXPECT_EQ(g.net->async_in_flight(), 0u);

  // After one synchronous maintenance boundary the strong guarantees of
  // §6.5 are restored on whatever population the churn left behind.
  g.net->heartbeat_sweep();
  g.net->expire_pointers();
  g.net->republish_all();
  g.net->check_property1();
  g.net->check_backpointer_symmetry();
  g.net->check_property4();
}

}  // namespace
}  // namespace tap
