// E15 — Fully threaded churn soak.
//
// ThreadedChurnSoak (src/sim/churn_driver.h) on one overlay: every round
// runs thread-parallel join, fail-stop repair and voluntary-leave waves
// back to back, each alone on the mesh.  The soak runs twice from the
// same seed — once at 1 worker, once at --threads — and the bench gates
// the §5 repair contract: identical terminal membership and Property 1
// occupancy fingerprints, converged invariants, and every tracked object
// locatable WITHOUT a republish (each wave re-routes §4.2 serially around
// its threads).
//
// Flags: --nodes=N [256]  --rounds=R [4]  --threads=T [4]  --seed=S [1]
//        --json (machine-readable metrics for CI)
//
// JSON metrics (tools/check_bench.py compares them against
// bench/baselines/bench_churn_threaded.json):
//   property1_ok / symmetry_ok /
//   no_pins_left / membership_match /
//   occupancy_match                 convergence contract, exact
//   locate_found                    availability with no republish, exact
//   repair_throughput               victims repaired per wall-clock second
//                                   in the parallel leg; floor gate
//   wave_heartbeats                 heartbeat pushes and probes delivered in
//                                   the parallel leg; the soak runs no
//                                   sweep, so all would come from the
//                                   waves, which send none; exact 0
//   unlinked_corpse_tables_freed    over the corpses no live node lists or
//                                   keeps a backpointer to, the share whose
//                                   table holds no member, the lower of the
//                                   two legs (0 with no such corpse); a
//                                   leave wave frees each victim's table
//                                   on its worker thread, under the
//                                   victim's stripe; exact 1
#include <chrono>
#include <cstring>

#include "bench_util.h"
#include "src/common/flags.h"
#include "src/sim/churn_driver.h"
#include "src/sim/thread_pool.h"
#include "src/tapestry/fingerprint.h"

namespace tap::bench {
namespace {

struct SoakResult {
  ThreadedChurnReport rep;
  double soak_ms = 0.0;
  std::uint64_t heartbeats = 0;  ///< kHeartbeatAck + kHeartbeatProbe
  TombstoneCensus tombstones;    ///< at the soak's end
};

/// Share of the unlinked corpses whose tables were freed; 0 with none.
double unlinked_freed_share(const TombstoneCensus& c) {
  return c.unlinked == 0 ? 0.0
                         : static_cast<double>(c.unlinked_freed) /
                               static_cast<double>(c.unlinked);
}

SoakResult run_soak(const MetricSpace& space, const TapestryParams& params,
                    std::size_t nodes, std::size_t rounds, std::size_t workers,
                    std::uint64_t seed) {
  Network net(space, params, seed);
  std::vector<Location> locs(nodes);
  for (std::size_t i = 0; i < nodes; ++i) locs[i] = i;
  net.insert_static_bulk(locs, workers == 0 ? 1 : workers);
  net.rebuild_static_tables(workers == 0 ? 1 : workers);

  ThreadedChurnScenario sc;
  sc.rounds = rounds;
  sc.joins_per_round = std::max<std::size_t>(4, nodes / 16);
  sc.fails_per_round = std::max<std::size_t>(2, nodes / 32);
  sc.leaves_per_round = std::max<std::size_t>(2, nodes / 32);
  sc.min_nodes = nodes / 2;
  sc.objects = 32;
  sc.workers = workers;
  sc.seed = seed;

  SoakResult r;
  ThreadedChurnSoak soak(net, sc);
  const TransportStats& ts = net.transport().stats();
  auto heartbeats = [&] {
    return ts.kind_count(MessageKind::kHeartbeatAck) +
           ts.kind_count(MessageKind::kHeartbeatProbe);
  };
  const std::uint64_t heartbeats0 = heartbeats();
  const auto t0 = std::chrono::steady_clock::now();
  r.rep = soak.run();
  r.soak_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  r.heartbeats = heartbeats() - heartbeats0;
  r.tombstones = tombstone_census(net);
  return r;
}

}  // namespace
}  // namespace tap::bench

int main(int argc, char** argv) {
  using namespace tap;
  using namespace tap::bench;

  std::size_t nodes = 256, rounds = 4, threads = 4;
  std::uint64_t seed = 1;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (number_flag(argv[i], "--nodes", &nodes) ||
        number_flag(argv[i], "--rounds", &rounds) ||
        number_flag(argv[i], "--threads", &threads) ||
        number_flag(argv[i], "--seed", &seed))
      continue;
    if (std::strcmp(argv[i], "--json") == 0)
      json = true;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  Rng rng(seed);
  const std::size_t joins_total =
      rounds * std::max<std::size_t>(4, nodes / 16);
  auto space = make_space("ring", nodes + joins_total + 16, rng);
  TapestryParams params = default_params();
  params.store_backend = StoreBackend::kSharded;

  const SoakResult serial =
      run_soak(*space, params, nodes, rounds, 1, seed);
  const SoakResult parallel =
      run_soak(*space, params, nodes, rounds, threads, seed);

  const bool membership_match =
      serial.rep.membership_fp == parallel.rep.membership_fp;
  const bool occupancy_match =
      serial.rep.occupancy_fp == parallel.rep.occupancy_fp;
  const bool property1_ok =
      serial.rep.property1_ok && parallel.rep.property1_ok;
  const bool symmetry_ok = serial.rep.symmetry_ok && parallel.rep.symmetry_ok;
  const bool no_pins = serial.rep.no_pins && parallel.rep.no_pins;
  const double locate_found =
      std::min(serial.rep.availability(), parallel.rep.availability());
  const double tables_freed =
      std::min(unlinked_freed_share(serial.tombstones),
               unlinked_freed_share(parallel.tombstones));

  const bool contract_ok = property1_ok && symmetry_ok && no_pins &&
                           membership_match && occupancy_match &&
                           locate_found == 1.0 && tables_freed == 1.0;

  if (json) {
    std::printf(
        "{\"bench\":\"bench_churn_threaded\",\"metrics\":{"
        "\"property1_ok\":%d,\"symmetry_ok\":%d,\"no_pins_left\":%d,"
        "\"membership_match\":%d,\"occupancy_match\":%d,"
        "\"locate_found\":%.4f,\"repair_throughput\":%.1f,"
        "\"wave_heartbeats\":%llu,\"unlinked_corpse_tables_freed\":%.4f,"
        "\"unlinked_corpses\":%zu,\"linked_corpses\":%zu,"
        "\"soak_ms_serial\":%.1f,\"soak_ms_parallel\":%.1f,"
        "\"threads\":%zu,\"hardware_threads\":%zu}}\n",
        property1_ok ? 1 : 0, symmetry_ok ? 1 : 0, no_pins ? 1 : 0,
        membership_match ? 1 : 0, occupancy_match ? 1 : 0, locate_found,
        parallel.rep.repairs_per_sec(),
        static_cast<unsigned long long>(parallel.heartbeats), tables_freed,
        parallel.tombstones.unlinked, parallel.tombstones.linked,
        serial.soak_ms, parallel.soak_ms, threads, default_worker_count());
    return contract_ok ? 0 : 1;
  }

  print_header("E15 — fully threaded churn soak",
               "§4.4 join and §5 repair waves on real threads: invariant "
               "convergence at any worker count, no republish backstop");
  print_space_info(*space, seed);
  TextTable table({"workers", "soak ms", "repairs/s", "avail", "P1", "sym",
                   "pins"});
  table.add_row({"1", fmt(serial.soak_ms, 1),
                 fmt(serial.rep.repairs_per_sec(), 0),
                 fmt(serial.rep.availability(), 4),
                 serial.rep.property1_ok ? "ok" : "FAIL",
                 serial.rep.symmetry_ok ? "ok" : "FAIL",
                 serial.rep.no_pins ? "none" : "LEFT!"});
  table.add_row({fmt(threads), fmt(parallel.soak_ms, 1),
                 fmt(parallel.rep.repairs_per_sec(), 0),
                 fmt(parallel.rep.availability(), 4),
                 parallel.rep.property1_ok ? "ok" : "FAIL",
                 parallel.rep.symmetry_ok ? "ok" : "FAIL",
                 parallel.rep.no_pins ? "none" : "LEFT!"});
  table.print();
  std::printf(
      "\n%zu rounds on a %zu-node core: %zu joins, %zu fails, %zu leaves in "
      "the parallel leg;\nmembership %s, occupancy pattern %s across worker "
      "counts; every tracked object\nlocated with NO republish: %s\n%zu "
      "corpses no live node links with, tables freed: %s; %zu still linked "
      "keep theirs\n",
      rounds, nodes, parallel.rep.joins, parallel.rep.fails,
      parallel.rep.leaves, membership_match ? "identical" : "MISMATCH!",
      occupancy_match ? "identical" : "MISMATCH!",
      locate_found == 1.0 ? "yes" : "NO!", parallel.tombstones.unlinked,
      tables_freed == 1.0 ? "all" : "NOT ALL!", parallel.tombstones.linked);
  return contract_ok ? 0 : 1;
}
