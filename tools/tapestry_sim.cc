// tapestry_sim — scenario driver for the Tapestry simulator.
//
// Runs a configurable end-to-end scenario (build a network over a chosen
// metric space, publish a workload, churn it, query it) and prints summary
// statistics, optionally as CSV for plotting.  Everything the experiment
// binaries measure is reachable from here with flags, so new parameter
// studies don't require writing C++.
//
// Examples:
//   tapestry_sim --space=ring --nodes=256 --objects=128 --queries=2000
//   tapestry_sim --space=transit-stub --nodes=512 --routing=prr --r=2
//   tapestry_sim --nodes=256 --churn-rounds=50 --fail-prob=0.2 --csv
//   tapestry_sim --scenario=churn --nodes=256 --fail-rate=1.5 --ttl=8 --csv
//
// Flags (defaults in brackets).  A numeric flag's value must parse whole —
// no sign on a count, no trailing characters — or the run exits 2 naming
// the flag, as it does for an unknown flag or choice:
//   --space=ring|torus|transit-stub|euclid6d|two-cluster   [ring]
//   --nodes=N        overlay size                           [256]
//   --objects=N      published objects                      [nodes/2]
//   --queries=N      lookup count                           [4*nodes]
//   --replicas=N     replicas per object                    [1]
//   --routing=native|prr                                    [native]
//   --r=N            redundancy (links per slot)            [3]
//   --roots=N        root multiplicity                      [1]
//   --retry          retry all roots on a miss (Obs. 1)     [off]
//   --secondary      PRR secondary publish/search (§2.4)    [off]
//   --static         build tables with the PRR oracle       [off: dynamic joins]
//   --churn-rounds=N rounds of join/leave/fail between queries [0]
//   --fail-prob=P    fraction of churn events that are crashes [0.25]
//   --seed=N                                                 [1]
//   --csv            emit CSV instead of the report
//
// Object-store backend flags (any scenario; see docs/stores.md):
//   --store=memory|sharded|persist|replicated|replicated+persist
//                     per-node store backend                   [memory]
//                     replicated* mirrors every root's records across its
//                     k nearest neighbors and serves locates at a dead
//                     root from an R-of-N quorum read
//   --store-dir=PATH  WAL/snapshot directory of the disk-backed backends
//                     (persist, replicated+persist); treated as sim-owned
//                     scratch and WIPED at startup
//                                                  [tapestry_store.<scenario>]
//
// Durable-backend extras (--store=persist or replicated+persist):
//   --scenario=recover       checkpoint -> destroy -> recover round trip:
//                            builds a static overlay, publishes and queries,
//                            checkpoints, tears the Network down, rebuilds
//                            membership from the manifest, restores, re-runs
//                            the identical query schedule and exits non-zero
//                            unless published() and availability match
//   --checkpoint-interval=T  periodic checkpoint epochs during
//                            --scenario=churn (0 = off)       [0]
//
// Parallel-build flags (--scenario=bigbuild; stands up a large overlay
// with the concurrent construction pipeline — bulk registration, parallel
// static tables, batched publishes — optionally topped by a wave of
// simultaneous §4.4 insertions, then samples queries):
//   --scenario=bigbuild      enable the pipeline
//   --threads=N              worker threads (0 = hardware)           [0]
//   --join-wave=W            concurrent dynamic joins on top         [0]
//   --join-threads=N         drive the join wave on N real threads
//                            (Network::join_bulk) instead of as
//                            simulated-time events (join_events)     [0]
//
// Churn-scenario flags (--scenario=churn; event-driven §6.5 experiments,
// deterministically reproducible from --seed).  A flag that sets a
// ChurnScenario knob (src/sim/churn_driver.h), here and in the sections
// below, writes that field directly, so its bracketed default is
// ChurnScenario's:
//   --churn-threads=N        run the wall-clock ThreadedChurnSoak instead
//                            of the event-driven driver: rounds of
//                            N-thread join, fail and leave waves, each
//                            alone on the overlay                     [0]
//   --scenario=static|churn  one-shot measurement vs scripted churn [static]
//   --horizon=T              simulated run length                    [40]
//   --epoch-len=T            statistics bucket length                [5]
//   --join-rate=R            Poisson joins per time unit             [0.8]
//   --leave-rate=R           voluntary departures per time unit      [0.6]
//   --fail-rate=R            fail-stop crashes per time unit         [0.6]
//   --query-rate=R           locate queries per time unit            [20]
//   --republish-interval=T   soft-state republish period (0 = off)   [4]
//   --expiry-interval=T      pointer-expiry sweep period (0 = off)   [1]
//   --heartbeat-interval=T   heartbeat repair period (0 = off)       [4]
//   --ttl=T                  pointer TTL                 [2 * republish]
//   --min-nodes=N            churn floor (no departures below)  [nodes/2]
//
// Demand-aware locate flags (any scenario; see src/tapestry/hotspot.h):
//   --cache=N                per-node locate-cache entries (0 = off)  [0]
//   --popularity=uniform|zipf  query-target skew (churn scenarios) [uniform]
//   --zipf-s=S               zipf exponent                          [1.0]
//   --hotspot                demand-driven replica placement        [off]
//   --flash-at=T             flash crowd: boost one object's popularity
//                            T units into the run (0 = off)         [0]
//   --flash-factor=X         flash-crowd multiplier                 [1000]
//   --flash-index=I          which object spikes                    [0]
//   --scenario=hotspot       churn scenario preconfigured for the flash
//                            crowd: zipf popularity, --cache=128 and
//                            --hotspot unless overridden, flash at
//                            horizon/2
//
// Fault-scenario presets (churn runs with a scripted fault; each exits
// non-zero unless its availability gate holds — see docs/scenarios.md):
//   --scenario=partition     split the overlay into two halves that cannot
//                            exchange messages, then heal the cut; churn
//                            rates default to 0 so the cut is the only
//                            disturbance.  --partition-at / --partition-heal
//                            override the cut window     [horizon/4, 5/8]
//   --scenario=rackfail      kill every node in the most-populated
//                            transit-stub domain at once (forces
//                            --space=transit-stub); --rackfail-at overrides
//                            the instant                 [horizon/4]
//   --scenario=rootfail      kill the current surrogate roots of the
//                            hottest published objects at once (churn rates
//                            default to 0, popularity to zipf);
//                            --rootfail-at / --rootfail-count override the
//                            instant and target count    [horizon/4, 3]
//   --scenario=burst         mobile-style churn bursts: --burst-every /
//                            --burst-len / --burst-factor control the
//                            cadence         [horizon/8, horizon/16, 8]
//
// Transport selection (any scenario; see docs/transport.md):
//   --transport=direct|loopback
//                     wire layer for inter-node messages: direct
//                     delivers in-process, loopback serializes every
//                     message through the Datagram codec        [direct]
//
// Metrics export (any scenario; see docs/metrics.md):
//   --metrics-out=FILE       reset the metrics registry and append one
//                            deterministic JSONL snapshot per epoch plus
//                            a terminal drain snapshot (churn-family
//                            scenarios only; the wall-clock
//                            --churn-threads soak has no epochs and
//                            rejects it)
//   --metrics-port=N         serve Prometheus text exposition on
//                            127.0.0.1:N for the life of the process
//                            (N=0 picks an ephemeral port, printed)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/metric/general.h"
#include "src/metric/ring.h"
#include "src/metric/torus.h"
#include "src/metric/transit_stub.h"
#include "src/sim/churn_driver.h"
#include "src/sim/metrics.h"
#include "src/sim/thread_pool.h"
#include "src/tapestry/network.h"

namespace {

using namespace tap;

struct Options {
  std::string space = "ring";
  std::size_t nodes = 256;
  std::size_t objects = 0;  // 0 => nodes/2
  std::size_t queries = 0;  // 0 => 4*nodes
  unsigned replicas = 1;
  std::string routing = "native";
  unsigned redundancy = 3;
  unsigned roots = 1;
  bool retry = false;
  bool secondary = false;
  bool use_static = false;
  int churn_rounds = 0;
  double fail_prob = 0.25;
  std::uint64_t seed = 1;
  bool csv = false;

  std::string scenario = "static";
  // Churn-family knobs: the flags and presets write `sc` directly, so its
  // defaults are the flags' defaults.  run_churn_scenario fills in the
  // knobs shared with other scenarios or derived from other flags.
  ChurnScenario sc;
  double ttl = 0.0;            // 0 => 2 * republish interval
  std::size_t min_nodes = 0;   // 0 => nodes/2

  // Demand-aware locate path (src/tapestry/hotspot.h).
  std::size_t cache = 0;       // locate-cache entries per node (0 = off)
  std::string popularity;      // empty => uniform (zipf under hotspot)
  bool hotspot = false;

  // Bigbuild-scenario mode.
  std::size_t threads = 0;       // 0 => hardware concurrency
  std::size_t join_wave = 0;     // concurrent dynamic joins on top
  std::size_t join_threads = 0;  // 0 => join_events; N => real threads

  // Threaded-churn-soak mode (--scenario=churn only).
  std::size_t churn_threads = 0;  // 0 => event-driven ChurnDriver

  // Metrics export (--metrics-out writes sc.metrics_out).
  int metrics_port = -1;  // -1 = off; 0 = ephemeral

  // Object-store backend.
  std::string store = "memory";
  std::string store_dir;       // empty => tapestry_store.<scenario>

  // Wire layer.
  std::string transport = "direct";
};

// Scenarios that run through ChurnDriver (hotspot and the fault presets
// are churn runs with different knobs).
bool churn_family(const std::string& scenario) {
  return scenario == "churn" || scenario == "hotspot" ||
         scenario == "partition" || scenario == "rackfail" ||
         scenario == "rootfail" || scenario == "burst";
}

Options parse(int argc, char** argv) {
  Options o;
  ChurnScenario& sc = o.sc;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    auto num = [&](const char* name, auto* out) {
      return number_flag(argv[i], name, out);
    };
    if (num("--nodes", &o.nodes) || num("--objects", &o.objects) ||
        num("--queries", &o.queries) || num("--replicas", &o.replicas) ||
        num("--r", &o.redundancy) || num("--roots", &o.roots) ||
        num("--churn-rounds", &o.churn_rounds) ||
        num("--fail-prob", &o.fail_prob) || num("--seed", &o.seed) ||
        num("--horizon", &sc.horizon) || num("--epoch-len", &sc.epoch) ||
        num("--join-rate", &sc.join_rate) ||
        num("--leave-rate", &sc.leave_rate) ||
        num("--fail-rate", &sc.fail_rate) ||
        num("--query-rate", &sc.query_rate) ||
        num("--republish-interval", &sc.republish_interval) ||
        num("--expiry-interval", &sc.expiry_interval) ||
        num("--heartbeat-interval", &sc.heartbeat_interval) ||
        num("--ttl", &o.ttl) || num("--min-nodes", &o.min_nodes) ||
        num("--cache", &o.cache) ||
        num("--zipf-s", &sc.zipf_s) || num("--flash-at", &sc.flash_at) ||
        num("--flash-factor", &sc.flash_factor) ||
        num("--flash-index", &sc.flash_index) ||
        num("--threads", &o.threads) || num("--join-wave", &o.join_wave) ||
        num("--join-threads", &o.join_threads) ||
        num("--churn-threads", &o.churn_threads) ||
        num("--partition-at", &sc.partition_at) ||
        num("--partition-heal", &sc.partition_heal) ||
        num("--rackfail-at", &sc.rackfail_at) ||
        num("--rootfail-at", &sc.rootfail_at) ||
        num("--rootfail-count", &sc.rootfail_count) ||
        num("--burst-every", &sc.burst_every) ||
        num("--burst-len", &sc.burst_len) ||
        num("--burst-factor", &sc.burst_factor) ||
        num("--metrics-port", &o.metrics_port) ||
        num("--checkpoint-interval", &sc.checkpoint_interval))
      continue;
    if (parse_flag(argv[i], "--space", &v)) o.space = v;
    else if (parse_flag(argv[i], "--routing", &v)) o.routing = v;
    else if (parse_flag(argv[i], "--scenario", &v)) o.scenario = v;
    else if (parse_flag(argv[i], "--popularity", &v)) o.popularity = v;
    else if (parse_flag(argv[i], "--metrics-out", &v)) sc.metrics_out = v;
    else if (parse_flag(argv[i], "--store", &v)) o.store = v;
    else if (parse_flag(argv[i], "--store-dir", &v)) o.store_dir = v;
    else if (parse_flag(argv[i], "--transport", &v)) o.transport = v;
    else if (std::strcmp(argv[i], "--hotspot") == 0) o.hotspot = true;
    else if (std::strcmp(argv[i], "--retry") == 0) o.retry = true;
    else if (std::strcmp(argv[i], "--secondary") == 0) o.secondary = true;
    else if (std::strcmp(argv[i], "--static") == 0) o.use_static = true;
    else if (std::strcmp(argv[i], "--csv") == 0) o.csv = true;
    else {
      std::fprintf(stderr, "unknown flag: %s (see file header for usage)\n",
                   argv[i]);
      std::exit(2);
    }
  }
  if (o.objects == 0) o.objects = o.nodes / 2;
  if (o.queries == 0) o.queries = 4 * o.nodes;
  if (o.min_nodes == 0) o.min_nodes = o.nodes / 2;
  if (o.ttl == 0.0)
    o.ttl = sc.republish_interval > 0.0
                ? 2.0 * sc.republish_interval
                : std::numeric_limits<double>::infinity();
  if (o.scenario != "static" && o.scenario != "churn" &&
      o.scenario != "bigbuild" && o.scenario != "recover" &&
      o.scenario != "hotspot" && o.scenario != "partition" &&
      o.scenario != "rackfail" && o.scenario != "rootfail" &&
      o.scenario != "burst") {
    std::fprintf(stderr, "unknown scenario: %s\n", o.scenario.c_str());
    std::exit(2);
  }
  if (o.scenario == "partition") {
    // The cut is the scenario's only disturbance: churn rates default to
    // zero, and the window leaves at least one republish round after the
    // heal so cross-side pointers refresh before the gate.
    if (sc.partition_at == 0.0) sc.partition_at = sc.horizon / 4.0;
    if (sc.partition_heal == 0.0) sc.partition_heal = sc.horizon * 5.0 / 8.0;
    sc.join_rate = 0.0;
    sc.leave_rate = 0.0;
    sc.fail_rate = 0.0;
  }
  if (o.scenario == "rackfail") {
    if (o.space == "ring") o.space = "transit-stub";  // preset default
    if (o.space != "transit-stub") {
      std::fprintf(stderr,
                   "--scenario=rackfail requires --space=transit-stub\n");
      std::exit(2);
    }
    if (sc.rackfail_at == 0.0) sc.rackfail_at = sc.horizon / 4.0;
  }
  if (o.scenario == "rootfail") {
    // Targeted root kill as the only disturbance: churn rates default to
    // zero, popularity to zipf so "hottest objects" ranks the targets, and
    // the kill fires a quarter into the run — leaving the soft-state
    // backstop (or the replicated store's quorum path, with
    // --store=replicated) the rest of the horizon to show recovery.
    if (sc.rootfail_at == 0.0) sc.rootfail_at = sc.horizon / 4.0;
    if (o.popularity.empty()) o.popularity = "zipf";
    sc.join_rate = 0.0;
    sc.leave_rate = 0.0;
    sc.fail_rate = 0.0;
  }
  if (o.scenario == "burst") {
    if (sc.burst_every == 0.0) sc.burst_every = sc.horizon / 8.0;
    if (sc.burst_len == 0.0) sc.burst_len = sc.horizon / 16.0;
  }
  if (o.scenario == "hotspot") {
    // Flash-crowd preset: a churn run with skewed popularity, the locate
    // cache and demand-driven replication on, and one object spiking
    // mid-run.  Explicit flags win over the preset.
    if (o.popularity.empty()) o.popularity = "zipf";
    if (o.cache == 0) o.cache = 128;
    o.hotspot = true;
    if (sc.flash_at == 0.0) sc.flash_at = sc.horizon / 2.0;
  }
  if (o.popularity.empty()) o.popularity = "uniform";
  if (o.popularity != "uniform" && o.popularity != "zipf") {
    std::fprintf(stderr, "unknown popularity: %s\n", o.popularity.c_str());
    std::exit(2);
  }
  if (o.store != "memory" && o.store != "sharded" && o.store != "persist" &&
      o.store != "replicated" && o.store != "replicated+persist") {
    std::fprintf(stderr,
                 "unknown store backend: %s (valid: memory, sharded, "
                 "persist, replicated, replicated+persist)\n",
                 o.store.c_str());
    std::exit(2);
  }
  if (o.transport != "direct" && o.transport != "loopback") {
    std::fprintf(stderr,
                 "unknown transport: %s (valid: direct, loopback)\n",
                 o.transport.c_str());
    std::exit(2);
  }
  const bool durable_store =
      o.store == "persist" || o.store == "replicated+persist";
  if (o.scenario == "recover" && !durable_store) {
    std::fprintf(stderr, "--scenario=recover requires --store=persist or "
                         "--store=replicated+persist\n");
    std::exit(2);
  }
  if (sc.checkpoint_interval > 0.0 && !durable_store) {
    std::fprintf(stderr, "--checkpoint-interval requires --store=persist or "
                         "--store=replicated+persist\n");
    std::exit(2);
  }
  if (o.store_dir.empty()) o.store_dir = "tapestry_store." + o.scenario;
  if (o.join_wave >= o.nodes) {
    std::fprintf(stderr, "--join-wave must be smaller than --nodes\n");
    std::exit(2);
  }
  if (o.churn_threads > 0) {
    if (o.scenario != "churn") {
      std::fprintf(stderr, "--churn-threads requires --scenario=churn\n");
      std::exit(2);
    }
    if (!sc.metrics_out.empty()) {
      std::fprintf(stderr,
                   "--metrics-out is not supported with --churn-threads\n");
      std::exit(2);
    }
  }
  return o;
}

std::unique_ptr<MetricSpace> make_space(const Options& o, Rng& rng) {
  const std::size_t capacity = 2 * o.nodes + 16;  // headroom for churn joins
  if (o.space == "ring") return std::make_unique<RingMetric>(capacity, rng);
  if (o.space == "torus") return std::make_unique<Torus2D>(capacity, rng);
  if (o.space == "transit-stub")
    return std::make_unique<TransitStubMetric>(capacity, rng);
  if (o.space == "euclid6d")
    return std::make_unique<HighDimEuclidean>(capacity, 6, rng);
  if (o.space == "two-cluster")
    return std::make_unique<TwoClusterMetric>(capacity, rng);
  std::fprintf(stderr, "unknown space: %s\n", o.space.c_str());
  std::exit(2);
}

// The store dir is sim-owned scratch (see the flag docs): a stale run's
// WALs must not leak into this one's recovered state, so it is wiped at
// startup — but only a directory this sim created (it carries a marker
// file).  A user pointing --store-dir at a real directory gets a refusal,
// not a recursive delete.
void reset_store_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  const fs::path marker = fs::path(dir) / ".tapestry_store";
  if (fs::exists(dir)) {
    if (!fs::exists(marker)) {
      std::fprintf(stderr,
                   "refusing to wipe %s: not a tapestry_sim store dir "
                   "(missing %s)\n",
                   dir.c_str(), marker.string().c_str());
      std::exit(2);
    }
    fs::remove_all(dir);
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  std::FILE* f = ec ? nullptr : std::fopen(marker.string().c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot initialize store dir %s\n", dir.c_str());
    std::exit(2);
  }
  std::fputs("tapestry_sim scratch store; wiped on every persist run\n", f);
  std::fclose(f);
}

Guid make_guid(const Network& net, std::uint64_t raw) {
  const IdSpec spec = net.params().id;
  return Guid(spec, splitmix64(raw ^ 0x51a) & spec.mask());
}

// Wall-clock threaded churn soak (--churn-threads=N): rounds of
// join/fail/leave waves on N real threads, one wave at a time.  Exit code
// 0 iff the mesh converged
// (Property 1, backpointer symmetry, no pins) and every tracked object
// stayed locatable without a republish.
int run_threaded_churn(const Options& o, Network& net) {
  ThreadedChurnScenario sc;
  sc.rounds = o.churn_rounds > 0 ? static_cast<std::size_t>(o.churn_rounds)
                                 : std::size_t{4};
  sc.joins_per_round = std::max<std::size_t>(4, o.nodes / 16);
  sc.fails_per_round = std::max<std::size_t>(2, o.nodes / 32);
  sc.leaves_per_round = std::max<std::size_t>(2, o.nodes / 32);
  sc.min_nodes = o.min_nodes;
  sc.objects = o.objects;
  sc.workers = o.churn_threads;
  sc.seed = o.seed;

  ThreadedChurnSoak soak(net, sc);
  const ThreadedChurnReport rep = soak.run();

  std::printf(
      "tapestry_sim threaded churn — %zu nodes, %zu workers, seed %llu\n",
      net.size(), sc.workers,
      static_cast<unsigned long long>(o.seed));
  std::printf(
      "  %zu rounds: %zu joins, %zu fails, %zu leaves; %.3fs in repair "
      "waves (%.0f repairs/s)\n",
      rep.rounds, rep.joins, rep.fails, rep.leaves, rep.repair_seconds,
      rep.repairs_per_sec());
  std::printf("  availability: %zu/%zu located, no republish (%.4f)\n",
              rep.found, rep.queries, rep.availability());
  std::printf(
      "  converged: property1=%s symmetry=%s pins=%s  membership=%016llx "
      "occupancy=%016llx\n",
      rep.property1_ok ? "ok" : "FAIL", rep.symmetry_ok ? "ok" : "FAIL",
      rep.no_pins ? "none" : "LEFTOVER",
      static_cast<unsigned long long>(rep.membership_fp),
      static_cast<unsigned long long>(rep.occupancy_fp));
  const bool ok = rep.converged() && rep.found == rep.queries;
  return ok ? 0 : 1;
}

// One CSV row of the churn table: an epoch, the drain or the totals.
// hops_p50/hops_p99 are over found queries bucketed by completion time —
// the per-epoch view of what the locate cache buys.
void print_csv_row(const std::string& label, const ChurnEpoch& e) {
  auto hops_p = [&e](double p) {
    return e.hops.empty() ? 0.0 : e.hops.percentile(p);
  };
  std::printf("%s,%.2f,%.2f,%zu,%zu,%zu,%zu,%zu,%zu,%.4f,%zu,%zu,%zu,%.3f,"
              "%.1f,%.1f,%zu,%zu\n",
              label.c_str(), e.t0, e.t1, e.live_nodes, e.joins, e.leaves,
              e.fails, e.queries, e.found, e.availability(),
              e.queries_post_failure, e.found_post_failure, e.queries_skipped,
              e.mean_stretch(), hops_p(50), hops_p(99), e.maintenance_msgs,
              e.churn_msgs);
}

// One line of the churn report's epoch table.
void print_report_row(const std::string& label, const ChurnEpoch& e) {
  char window[32];
  std::snprintf(window, sizeof window, "%.1f-%.1f", e.t0, e.t1);
  char postfail[32];
  std::snprintf(postfail, sizeof postfail, "%zu/%zu", e.found_post_failure,
                e.queries_post_failure);
  std::printf("  %-5s %-13s %5zu %5zu %5zu %5zu %8zu %6.2f%% %9s %8.2f %10zu\n",
              label.c_str(), window, e.live_nodes, e.joins, e.leaves, e.fails,
              e.queries, e.availability() * 100.0, postfail, e.mean_stretch(),
              e.maintenance_msgs);
}

int run_churn_scenario(const Options& o, Network& net) {
  if (o.churn_threads > 0) return run_threaded_churn(o, net);
  // The knobs no flag writes directly: shared with the other scenarios or
  // derived from other flags.
  ChurnScenario sc = o.sc;
  sc.min_nodes = o.min_nodes;
  sc.post_failure_window =
      sc.republish_interval > 0.0 ? sc.republish_interval : sc.epoch;
  sc.objects = o.objects;
  sc.replicas = o.replicas;
  sc.seed = o.seed;
  sc.popularity = o.popularity == "zipf"
                      ? ChurnScenario::Popularity::kZipf
                      : ChurnScenario::Popularity::kUniform;
  sc.hotspot_replication = o.hotspot;
  if (sc.checkpoint_interval > 0.0) sc.checkpoint_dir = o.store_dir;

  ChurnDriver driver(net, sc);
  const ChurnReport rep = driver.run();

  // Fault presets gate their exit status on recovery: the final epoch (the
  // window after the heal / the repair interval after the fault) must come
  // back to high availability, and the run as a whole must not collapse.
  // Availability is over objects that still have a live replica, so a
  // rack-kill destroying sole replicas does not count against the gate.
  int gate_rc = 0;
  if (o.scenario == "partition" || o.scenario == "rackfail" ||
      o.scenario == "rootfail" || o.scenario == "burst") {
    const double final_avail = rep.epochs.back().availability();
    const double total_avail = rep.availability();
    const double final_floor = o.scenario == "burst" ? 0.85 : 0.90;
    const double total_floor = o.scenario == "partition" ? 0.60 : 0.75;
    if (final_avail < final_floor || total_avail < total_floor) {
      std::fprintf(stderr,
                   "%s availability gate FAILED: final epoch %.4f "
                   "(floor %.2f), total %.4f (floor %.2f)\n",
                   o.scenario.c_str(), final_avail, final_floor, total_avail,
                   total_floor);
      gate_rc = 1;
    }
  }

  if (o.csv) {
    std::printf(
        "epoch,t0,t1,nodes,joins,leaves,fails,queries,found,availability,"
        "post_fail_queries,post_fail_found,skipped,stretch_mean,"
        "hops_p50,hops_p99,maint_msgs,churn_msgs\n");
    for (std::size_t i = 0; i < rep.epochs.size(); ++i)
      print_csv_row(std::to_string(i), rep.epochs[i]);
    print_csv_row("drain", rep.drain);
    print_csv_row("total", rep);
    return gate_rc;
  }

  std::printf("tapestry_sim churn — %zu nodes on %s (seed %llu)\n",
              o.nodes, o.space.c_str(),
              static_cast<unsigned long long>(o.seed));
  std::printf("  rates: join %.2f / leave %.2f / fail %.2f per unit, "
              "queries %.1f/unit\n",
              sc.join_rate, sc.leave_rate, sc.fail_rate, sc.query_rate);
  std::printf("  soft state: republish %.1f, expiry %.1f, heartbeat %.1f, "
              "ttl %.1f\n",
              sc.republish_interval, sc.expiry_interval, sc.heartbeat_interval,
              o.ttl);
  std::printf("  %-5s %-13s %5s %5s %5s %5s %8s %7s %9s %8s %10s\n", "epoch",
              "window", "nodes", "join", "leave", "fail", "queries", "avail",
              "post-fail", "stretch", "maint msgs");
  for (std::size_t i = 0; i < rep.epochs.size(); ++i)
    print_report_row(std::to_string(i), rep.epochs[i]);
  if (rep.drain.queries > 0 || rep.drain.maintenance_msgs > 0 ||
      rep.drain.churn_msgs > 0)
    print_report_row("drain", rep.drain);
  std::printf("  totals: availability %.2f%% (%zu/%zu, %zu skipped), "
              "post-failure %.2f%%, stretch %.2f\n",
              rep.availability() * 100.0, rep.found, rep.queries,
              rep.queries_skipped, rep.availability_post_failure() * 100.0,
              rep.mean_stretch());
  if (!rep.hops.empty())
    std::printf("  hops:    %s\n", rep.hops.describe().c_str());
  if (o.cache > 0) {
    const std::size_t lookups = rep.cache_hits + rep.cache_misses;
    std::printf("  cache:   %zu hits / %zu lookups (%.1f%%), "
                "%zu fallbacks\n",
                rep.cache_hits, lookups,
                lookups == 0 ? 0.0
                             : 100.0 * static_cast<double>(rep.cache_hits) /
                                   static_cast<double>(lookups),
                rep.cache_fallbacks);
  }
  if (o.hotspot) {
    const double mean_load =
        rep.load_nodes == 0 ? 0.0
                            : static_cast<double>(rep.found) /
                                  static_cast<double>(rep.load_nodes);
    std::printf("  hotspot: %zu promotions, %zu demotions; load max %zu "
                "over %zu resolvers (spread %.2f)\n",
                rep.hotspot_promotions, rep.hotspot_demotions, rep.load_max,
                rep.load_nodes,
                mean_load == 0.0 ? 0.0
                                 : static_cast<double>(rep.load_max) /
                                       mean_load);
  }
  std::printf("  traffic: %zu maintenance msgs (%.0f/unit), %zu churn msgs; "
              "%llu events fired\n",
              rep.maintenance_msgs, rep.maintenance_msgs / sc.horizon,
              rep.churn_msgs,
              static_cast<unsigned long long>(rep.events_fired));
  return gate_rc;
}

// Checkpoint -> destroy -> recover round trip on the persistent backend:
// the proof behind kill-and-resume churn experiments.  Builds a static
// overlay, publishes and queries a workload, checkpoints, destroys the
// Network, rebuilds the membership from the checkpoint manifest (the
// per-node stores recover their WAL/snapshot files at construction),
// restores the replica registry, and replays the identical query schedule.
// Exit status is non-zero unless published() state and locate availability
// come back exactly.
int run_recover_scenario(const Options& o, const MetricSpace& space,
                         const TapestryParams& params) {
  std::vector<Guid> guids;
  std::vector<std::pair<Guid, NodeId>> pub_before;
  std::size_t found_before = 0;

  {
    Network net(space, params, o.seed);
    for (Location i = 0; i < o.nodes; ++i) net.insert_static(i);
    net.rebuild_static_tables();
    const auto ids = net.node_ids();
    Rng wl(o.seed ^ 0x4c0ad);
    for (std::size_t i = 0; i < o.objects; ++i) {
      const Guid guid = make_guid(net, i);
      guids.push_back(guid);
      for (unsigned r = 0; r < o.replicas; ++r)
        net.publish(ids[wl.next_u64(ids.size())], guid);
    }
    Rng ql(o.seed ^ 0x9e77);
    for (std::size_t q = 0; q < o.queries; ++q) {
      const Guid& guid = guids[ql.next_u64(guids.size())];
      if (net.locate(ids[ql.next_u64(ids.size())], guid).found) ++found_before;
    }
    net.checkpoint_stores(params.store_dir);
    pub_before = net.published();
    // Network destroyed here — the simulated kill.
  }

  const auto manifest = ObjectDirectory::read_manifest(params.store_dir);
  Network revived(space, params, o.seed);
  for (const auto& [idv, loc] : manifest.nodes)
    revived.insert_static(loc, NodeId(params.id, idv));
  revived.rebuild_static_tables();
  const double t_checkpoint = revived.restore_directory(params.store_dir);
  // Resume simulated time where the checkpoint left it: recovered expiry
  // deadlines are absolute, so a finite-TTL run restarted at clock 0 would
  // let every pointer outlive its deadline by the whole checkpoint time.
  revived.events().run_until(t_checkpoint);

  auto canon = [](std::vector<std::pair<Guid, NodeId>> v) {
    std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first < b.first;
      return a.second < b.second;
    });
    return v;
  };
  const bool published_match =
      canon(pub_before) == canon(revived.published());

  const auto ids = revived.node_ids();
  Rng ql(o.seed ^ 0x9e77);
  std::size_t found_after = 0;
  for (std::size_t q = 0; q < o.queries; ++q) {
    const Guid& guid = guids[ql.next_u64(guids.size())];
    if (revived.locate(ids[ql.next_u64(ids.size())], guid).found)
      ++found_after;
  }
  const bool availability_match = found_after == found_before;
  const bool ok = published_match && availability_match;

  if (o.csv) {
    std::printf("nodes,objects,queries,found_before,found_after,"
                "published_records,published_match,availability_match,ok\n");
    std::printf("%zu,%zu,%zu,%zu,%zu,%zu,%d,%d,%d\n", o.nodes, o.objects,
                o.queries, found_before, found_after, pub_before.size(),
                published_match ? 1 : 0, availability_match ? 1 : 0,
                ok ? 1 : 0);
    return ok ? 0 : 1;
  }

  std::printf("tapestry_sim recover — %zu nodes on %s, store dir %s\n",
              o.nodes, o.space.c_str(), params.store_dir.c_str());
  std::printf("  checkpoint at t=%.3f: %zu (guid, server) records, "
              "%zu node stores flushed\n",
              t_checkpoint, pub_before.size(), manifest.nodes.size());
  std::printf("  published():   %s (%zu records)\n",
              published_match ? "identical" : "MISMATCH", pub_before.size());
  std::printf("  availability:  %zu/%zu before, %zu/%zu after -> %s\n",
              found_before, o.queries, found_after, o.queries,
              availability_match ? "identical" : "MISMATCH");
  std::printf("  round trip:    %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

double wall_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Concurrent large-overlay construction: bulk-register the core, build its
// tables with the parallel static oracle, batch-publish the workload, then
// (optionally) land a wave of simultaneous §4.4 insertions on top and
// sample queries against the result.
int run_bigbuild_scenario(const Options& o, const MetricSpace& space,
                          const TapestryParams& params) {
  const std::size_t threads =
      o.threads == 0 ? default_worker_count() : o.threads;
  Network net(space, params, o.seed);

  const std::size_t core = o.nodes - o.join_wave;
  std::vector<Location> locs(core);
  for (std::size_t i = 0; i < core; ++i) locs[i] = i;

  auto t0 = std::chrono::steady_clock::now();
  net.insert_static_bulk(locs, threads);
  net.rebuild_static_tables(threads);
  const double build_ms = wall_ms(t0);

  double wave_ms = 0.0;
  if (o.join_wave > 0 && o.join_threads > 0) {
    // Real threads: each worker drives one §4.4 join state machine,
    // racing the others through the per-node stripe locks.
    std::vector<JoinRequest> reqs(o.join_wave);
    for (std::size_t i = 0; i < o.join_wave; ++i) reqs[i].loc = core + i;
    t0 = std::chrono::steady_clock::now();
    net.join_bulk(reqs, o.join_threads);
    wave_ms = wall_ms(t0);
  } else if (o.join_wave > 0) {
    // Simulated time: join_events interleaves the same protocol's messages
    // as events on one thread.
    Rng wave_rng(o.seed ^ 0x9a7e);
    const auto core_ids = net.node_ids();
    std::vector<EventJoin> reqs(o.join_wave);
    for (std::size_t i = 0; i < o.join_wave; ++i) {
      reqs[i].loc = core + i;
      reqs[i].gateway = core_ids[wave_rng.next_u64(core_ids.size())];
      reqs[i].start_time = 0.0;
    }
    t0 = std::chrono::steady_clock::now();
    net.join_events(reqs);
    wave_ms = wall_ms(t0);
  }

  Rng wl(o.seed ^ 0x4c0ad);
  const auto ids = net.node_ids();
  std::vector<ObjectDirectory::PublishRequest> pubs;
  pubs.reserve(o.objects * o.replicas);
  std::vector<Guid> guids;
  for (std::size_t i = 0; i < o.objects; ++i) {
    const Guid guid = make_guid(net, i);
    guids.push_back(guid);
    for (unsigned r = 0; r < o.replicas; ++r)
      pubs.push_back({ids[wl.next_u64(ids.size())], guid});
  }
  Trace publish_trace;
  t0 = std::chrono::steady_clock::now();
  net.publish_batch(pubs, threads, &publish_trace);
  const double publish_ms = wall_ms(t0);

  net.check_property1();  // the bulk pipeline must still honour Property 1

  Summary hops, latency;
  std::size_t found = 0;
  const std::size_t queries = std::min<std::size_t>(o.queries, 20'000);
  for (std::size_t q = 0; q < queries; ++q) {
    const Guid& guid = guids[wl.next_u64(guids.size())];
    const LocateResult r =
        net.locate(ids[wl.next_u64(ids.size())], guid);
    if (!r.found) continue;
    ++found;
    hops.add(double(r.hops));
    latency.add(r.latency);
  }

  if (o.csv) {
    std::printf(
        "space,nodes,join_wave,join_threads,threads,objects,queries,build_ms,"
        "wave_ms,publish_ms,success,hops_mean,entries_per_node\n");
    std::printf("%s,%zu,%zu,%zu,%zu,%zu,%zu,%.1f,%.1f,%.1f,%.4f,%.2f,%.1f\n",
                o.space.c_str(), o.nodes, o.join_wave, o.join_threads,
                threads, o.objects,
                queries, build_ms, wave_ms, publish_ms,
                queries == 0 ? 1.0 : double(found) / double(queries),
                hops.empty() ? 0.0 : hops.mean(),
                double(net.total_table_entries()) / double(net.size()));
    return 0;
  }

  std::printf("tapestry_sim bigbuild — %zu nodes on %s, %zu threads\n",
              o.nodes, o.space.c_str(), threads);
  std::printf("  build:    %zu-node core in %.0f ms (bulk registration + "
              "parallel static tables)\n",
              core, build_ms);
  if (o.join_wave > 0 && o.join_threads > 0)
    std::printf("  wave:     %zu simultaneous insertions on %zu real "
                "threads in %.0f ms\n",
                o.join_wave, o.join_threads, wave_ms);
  else if (o.join_wave > 0)
    std::printf("  wave:     %zu simultaneous insertions in %.0f ms\n",
                o.join_wave, wave_ms);
  std::printf("  publish:  %zu deposits batched in %.0f ms "
              "(%zu objects x %u replicas, %.1f msgs each)\n",
              pubs.size(), publish_ms, o.objects, o.replicas,
              pubs.empty() ? 0.0
                           : double(publish_trace.messages()) /
                                 double(pubs.size()));
  std::printf("  queries:  %zu/%zu found (%.2f%%), hops %s\n", found, queries,
              queries == 0 ? 100.0 : 100.0 * double(found) / double(queries),
              hops.empty() ? "-" : hops.describe().c_str());
  std::printf("  tables:   %.1f entries/node, Property 1 verified\n",
              double(net.total_table_entries()) / double(net.size()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  // The scrape endpoint serves whatever the registry holds for the life of
  // the process; touch_builtin() makes the full metric set visible even
  // before the scenario's first increment.
  std::unique_ptr<metrics::ScrapeServer> scrape;
  if (o.metrics_port >= 0) {
    metrics::touch_builtin();
    scrape = std::make_unique<metrics::ScrapeServer>(o.metrics_port);
    if (!scrape->running()) {
      std::fprintf(stderr, "cannot bind metrics port %d\n", o.metrics_port);
      return 2;
    }
    std::fprintf(stderr, "metrics: http://127.0.0.1:%d/metrics\n",
                 scrape->port());
  }

  Rng rng(o.seed);
  auto space = make_space(o, rng);

  TapestryParams params;
  params.id = IdSpec{4, 8};
  params.redundancy = o.redundancy;
  params.root_multiplicity = o.roots;
  params.retry_all_roots = o.retry;
  params.prr_secondary_search = o.secondary;
  params.routing = o.routing == "prr" ? RoutingMode::kPrrLike
                                      : RoutingMode::kTapestryNative;
  if (churn_family(o.scenario)) params.pointer_ttl = o.ttl;
  params.locate_cache_size = o.cache;
  if (o.transport == "loopback") params.transport = TransportKind::kLoopback;
  if (o.store == "sharded") params.store_backend = StoreBackend::kSharded;
  if (o.store == "replicated") params.store_backend = StoreBackend::kReplicated;
  if (o.store == "persist" || o.store == "replicated+persist") {
    params.store_backend = o.store == "persist"
                               ? StoreBackend::kPersistent
                               : StoreBackend::kReplicatedPersistent;
    params.store_dir = o.store_dir;
    reset_store_dir(params.store_dir);
  }

  if (o.scenario == "recover") return run_recover_scenario(o, *space, params);
  if (o.scenario == "bigbuild")
    return run_bigbuild_scenario(o, *space, params);

  Network net(*space, params, o.seed);
  Trace build_trace;
  if (o.use_static) {
    for (Location i = 0; i < o.nodes; ++i) net.insert_static(i);
    net.rebuild_static_tables();
  } else {
    net.bootstrap(0);
    for (Location i = 1; i < o.nodes; ++i)
      net.join(i, std::nullopt, &build_trace);
  }

  if (churn_family(o.scenario)) return run_churn_scenario(o, net);

  // Workload.
  Rng wl(o.seed ^ 0x4c0ad);
  struct Obj {
    Guid guid;
    std::vector<NodeId> servers;
  };
  std::vector<Obj> objects;
  Trace publish_trace;
  for (std::size_t i = 0; i < o.objects; ++i) {
    Obj obj{make_guid(net, i), {}};
    const auto ids = net.node_ids();
    for (unsigned r = 0; r < o.replicas; ++r) {
      const NodeId server = ids[wl.next_u64(ids.size())];
      net.publish(server, obj.guid, &publish_trace);
      obj.servers.push_back(server);
    }
    objects.push_back(std::move(obj));
  }

  // Optional churn between publication and measurement.
  std::size_t joins = 0, leaves = 0, fails = 0;
  Location next_loc = o.nodes;
  for (int round = 0; round < o.churn_rounds; ++round) {
    const double dice = wl.next_double();
    const auto ids = net.node_ids();
    if (dice < 0.4 && next_loc < space->size()) {
      net.join(next_loc++);
      ++joins;
    } else if (net.size() > o.nodes / 2) {
      const NodeId victim = ids[wl.next_u64(ids.size())];
      bool is_server = false;
      for (const auto& obj : objects)
        for (const NodeId& s : obj.servers)
          if (s == victim) is_server = true;
      if (is_server) continue;
      if (wl.next_double() < o.fail_prob) {
        net.fail(victim);
        ++fails;
      } else {
        net.leave(victim);
        ++leaves;
      }
    }
  }
  if (fails > 0) {
    net.heartbeat_sweep();
    net.republish_all();
  }

  // Measurement.
  Summary stretch, hops, latency;
  std::size_t found = 0;
  Trace query_trace;
  for (std::size_t q = 0; q < o.queries; ++q) {
    const Obj& obj = objects[wl.next_u64(objects.size())];
    const auto ids = net.node_ids();
    const NodeId client = ids[wl.next_u64(ids.size())];
    const LocateResult r = net.locate(client, obj.guid, &query_trace);
    if (!r.found) continue;
    ++found;
    hops.add(double(r.hops));
    latency.add(r.latency);
    const double direct = net.distance_to_nearest_replica(client, obj.guid);
    if (direct > 1e-9 && direct < 1e18) stretch.add(r.latency / direct);
  }
  const double quality = net.property2_quality();

  if (o.csv) {
    std::printf(
        "space,nodes,objects,queries,replicas,routing,r,roots,churn,"
        "success,stretch_mean,stretch_p95,hops_mean,latency_mean,"
        "quality,join_msgs,query_msgs\n");
    std::printf("%s,%zu,%zu,%zu,%u,%s,%u,%u,%d,%.4f,%.3f,%.3f,%.2f,%.5f,"
                "%.4f,%.1f,%.1f\n",
                o.space.c_str(), o.nodes, o.objects, o.queries, o.replicas,
                o.routing.c_str(), o.redundancy, o.roots, o.churn_rounds,
                double(found) / double(o.queries),
                stretch.empty() ? 0.0 : stretch.mean(),
                stretch.empty() ? 0.0 : stretch.percentile(95),
                hops.empty() ? 0.0 : hops.mean(),
                latency.empty() ? 0.0 : latency.mean(), quality,
                o.use_static || o.nodes < 2
                    ? 0.0
                    : double(build_trace.messages()) / double(o.nodes - 1),
                double(query_trace.messages()) / double(o.queries));
    return 0;
  }

  std::printf("tapestry_sim — %zu nodes on %s (%s routing, R=%u, roots=%u%s%s)\n",
              o.nodes, o.space.c_str(), o.routing.c_str(), o.redundancy,
              o.roots, o.retry ? ", retry" : "",
              o.secondary ? ", secondary-search" : "");
  if (!o.use_static)
    std::printf("  build:    %.0f msgs/join over %zu joins\n",
                double(build_trace.messages()) / double(o.nodes - 1),
                o.nodes - 1);
  std::printf("  publish:  %zu objects x %u replicas, %.1f msgs each\n",
              o.objects, o.replicas,
              double(publish_trace.messages()) /
                  double(o.objects * o.replicas));
  if (o.churn_rounds > 0)
    std::printf("  churn:    %zu joins, %zu leaves, %zu crashes "
                "(+ heartbeat/republish)\n",
                joins, leaves, fails);
  std::printf("  queries:  %zu/%zu found (%.2f%%)\n", found, o.queries,
              100.0 * double(found) / double(o.queries));
  if (!hops.empty()) {
    std::printf("  hops:     %s\n", hops.describe().c_str());
    std::printf("  latency:  %s\n", latency.describe().c_str());
    std::printf("  stretch:  %s\n", stretch.describe().c_str());
  }
  std::printf("  tables:   Property 2 quality %.2f%%, %.1f entries/node\n",
              quality * 100.0,
              double(net.total_table_entries()) / double(net.size()));
  return 0;
}
