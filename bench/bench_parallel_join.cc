// E14 — Thread-parallel dynamic insertion.
//
// The §4.4 join protocol driven on real threads (Network::join_bulk: the
// shared insertion steps given the stripe locks): a wave of simultaneous
// insertions lands on a static core once serially and once across
// --threads workers, and the bench verifies the convergence contract —
// same seed at any worker count gives the same membership and the same
// Property 1 occupancy pattern (fingerprint_occupancy), with no leftover
// pins and full surrogate agreement — then reports the wall-clock
// speedup.  A third leg races the wave against a guarded ShardedStore
// batch publish and checks that one soft-state republish restores full
// locatability.
//
// Flags: --core=N [2000]  --wave=W [64]  --threads=T [4]  --seed=S [1]
//        --json (machine-readable metrics for CI)
//
// JSON metrics (tools/check_bench.py compares them against
// bench/baselines/bench_parallel_join.json):
//   property1_ok / no_pins_left /
//   surrogate_agreement / occupancy_match   convergence contract, exact
//   race_locate_found                       availability after the racing
//                                           publish + republish, exact
//   join_speedup                            wall-clock serial/parallel
//                                           ratio; floor gate — tracks the
//                                           runner's core count (~1.0 on a
//                                           single-core box)
#include <chrono>
#include <cstring>
#include <set>
#include <thread>

#include "bench_util.h"
#include "src/sim/thread_pool.h"
#include "src/tapestry/fingerprint.h"

namespace tap::bench {
namespace {

double wall_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct WaveResult {
  double wave_ms = 0.0;
  bool property1 = false;
  bool no_pins = true;
  bool surrogates_agree = true;
  std::uint64_t membership_fp = 0;
  std::uint64_t occupancy_fp = 0;
  std::size_t messages = 0;
  std::unique_ptr<Network> net;
};

std::vector<JoinRequest> wave_requests(std::size_t core, std::size_t wave) {
  std::vector<JoinRequest> reqs(wave);
  for (std::size_t i = 0; i < wave; ++i) reqs[i].loc = core + i;
  return reqs;
}

WaveResult run_wave(const MetricSpace& space, const TapestryParams& params,
                    std::size_t core, std::size_t wave, std::size_t workers,
                    std::uint64_t seed) {
  WaveResult r;
  r.net = std::make_unique<Network>(space, params, seed);
  Network& net = *r.net;
  std::vector<Location> locs(core);
  for (std::size_t i = 0; i < core; ++i) locs[i] = i;
  net.insert_static_bulk(locs, workers == 0 ? 1 : workers);
  net.rebuild_static_tables(workers == 0 ? 1 : workers);

  Trace trace;
  const auto t0 = std::chrono::steady_clock::now();
  const auto joined =
      net.join_bulk(wave_requests(core, wave), workers, &trace);
  r.wave_ms = wall_ms(t0);
  r.messages = trace.messages();

  detail::Fnv1a members;
  std::vector<std::uint64_t> sorted;
  for (const NodeId& id : joined) sorted.push_back(id.value());
  std::sort(sorted.begin(), sorted.end());
  for (const std::uint64_t v : sorted) members.mix(v);
  r.membership_fp = members.value();
  r.occupancy_fp = fingerprint_occupancy(net);

  try {
    net.check_property1();
    net.check_backpointer_symmetry();
    r.property1 = true;
  } catch (const CheckError&) {
    r.property1 = false;
  }
  for (const auto& n : net.registry().nodes()) {
    if (!n->alive) continue;
    const RoutingTable& t = n->table();
    for (unsigned l = 0; l < t.levels(); ++l)
      for (unsigned j = 0; j < t.radix(); ++j)
        if (!t.at(l, j).pinned_members().empty()) r.no_pins = false;
  }
  // Surrogate agreement sampled over a start subset (the full cross
  // product is an O(n^2) oracle pass; 64 starts x 8 targets witnesses
  // Theorem 2 just as decisively for a perf gate).
  Rng sr(seed ^ 0x5a5a);
  const auto ids = net.node_ids();
  for (int k = 0; k < 8; ++k) {
    const Guid guid = bench_guid(net, 41'000 + static_cast<std::size_t>(k));
    std::set<std::uint64_t> roots;
    for (int s = 0; s < 64; ++s) {
      const NodeId src = ids[sr.next_u64(ids.size())];
      roots.insert(net.router().route_to_root_peek(src, guid).root.value());
    }
    if (roots.size() != 1) r.surrogates_agree = false;
  }
  return r;
}

}  // namespace
}  // namespace tap::bench

int main(int argc, char** argv) {
  using namespace tap;
  using namespace tap::bench;

  std::size_t core = 2000, wave = 64, threads = 4;
  std::uint64_t seed = 1;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--core=", 7) == 0)
      core = std::stoul(argv[i] + 7);
    else if (std::strncmp(argv[i], "--wave=", 7) == 0)
      wave = std::stoul(argv[i] + 7);
    else if (std::strncmp(argv[i], "--threads=", 10) == 0)
      threads = std::stoul(argv[i] + 10);
    else if (std::strncmp(argv[i], "--seed=", 7) == 0)
      seed = std::stoull(argv[i] + 7);
    else if (std::strcmp(argv[i], "--json") == 0)
      json = true;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  Rng rng(seed);
  auto space = make_space("ring", core + wave + 8, rng);
  TapestryParams params = default_params();

  const WaveResult serial =
      run_wave(*space, params, core, wave, 1, seed);
  const WaveResult parallel =
      run_wave(*space, params, core, wave, threads, seed);

  const bool membership_match =
      serial.membership_fp == parallel.membership_fp;
  const bool occupancy_match = serial.occupancy_fp == parallel.occupancy_fp;
  const bool property1_ok = serial.property1 && parallel.property1;
  const bool no_pins = serial.no_pins && parallel.no_pins;
  const bool surrogates = serial.surrogates_agree && parallel.surrogates_agree;
  const double speedup =
      parallel.wave_ms > 0.0 ? serial.wave_ms / parallel.wave_ms : 1.0;

  // Race leg: the same wave on a sharded-store overlay while a guarded
  // batch publish drains underneath it; one republish restores Property 4.
  double race_found = 1.0;
  {
    TapestryParams race_params = params;
    race_params.store_backend = StoreBackend::kSharded;
    Network net(*space, race_params, seed);
    std::vector<Location> locs(core);
    for (std::size_t i = 0; i < core; ++i) locs[i] = i;
    net.insert_static_bulk(locs, threads);
    net.rebuild_static_tables(threads);

    Rng wl(seed ^ 0xbead);
    const auto ids = net.node_ids();
    std::vector<ObjectDirectory::PublishRequest> pubs;
    const std::size_t n_objects = wave * 2;
    for (std::size_t i = 0; i < n_objects; ++i)
      pubs.push_back({ids[wl.next_u64(ids.size())],
                      bench_guid(net, 43'000 + i)});

    std::thread racer(
        [&] { net.publish_batch(pubs, threads, nullptr, /*guarded=*/true); });
    net.join_bulk(wave_requests(core, wave), threads);
    racer.join();

    net.republish_all();
    net.check_property4();
    const auto all_ids = net.node_ids();
    std::size_t found = 0;
    for (std::size_t i = 0; i < n_objects; ++i)
      if (net.locate(all_ids[wl.next_u64(all_ids.size())],
                     bench_guid(net, 43'000 + i))
              .found)
        ++found;
    race_found = n_objects == 0 ? 1.0 : double(found) / double(n_objects);
  }

  const bool contract_ok = property1_ok && no_pins && surrogates &&
                           membership_match && occupancy_match;

  if (json) {
    std::printf(
        "{\"bench\":\"bench_parallel_join\",\"metrics\":{"
        "\"property1_ok\":%d,\"no_pins_left\":%d,"
        "\"surrogate_agreement\":%d,\"membership_match\":%d,"
        "\"occupancy_match\":%d,\"race_locate_found\":%.4f,"
        "\"join_speedup\":%.3f,\"wave_ms_serial\":%.1f,"
        "\"wave_ms_parallel\":%.1f,\"msgs_per_join_parallel\":%.1f,"
        "\"threads\":%zu,\"hardware_threads\":%zu}}\n",
        property1_ok ? 1 : 0, no_pins ? 1 : 0, surrogates ? 1 : 0,
        membership_match ? 1 : 0, occupancy_match ? 1 : 0, race_found,
        speedup, serial.wave_ms, parallel.wave_ms,
        wave == 0 ? 0.0 : double(parallel.messages) / double(wave), threads,
        default_worker_count());
    return contract_ok && race_found == 1.0 ? 0 : 1;
  }

  print_header("E14 — thread-parallel dynamic insertion",
               "§4.4 simultaneous insertion on real threads: invariant "
               "convergence at any worker count (Theorem 6)");
  print_space_info(*space, seed);
  TextTable table({"workers", "wave ms", "msgs/join", "P1", "pins", "roots"});
  table.add_row({"1", fmt(serial.wave_ms, 1),
                 fmt(double(serial.messages) / double(wave), 0),
                 serial.property1 ? "ok" : "FAIL",
                 serial.no_pins ? "none" : "LEFT!",
                 serial.surrogates_agree ? "unique" : "SPLIT!"});
  table.add_row({fmt(threads), fmt(parallel.wave_ms, 1),
                 fmt(double(parallel.messages) / double(wave), 0),
                 parallel.property1 ? "ok" : "FAIL",
                 parallel.no_pins ? "none" : "LEFT!",
                 parallel.surrogates_agree ? "unique" : "SPLIT!"});
  table.print();
  std::printf(
      "\n%zu joins on a %zu-node core: speedup %.2fx at %zu workers (%zu "
      "hardware threads)\nmembership %s, occupancy pattern %s across worker "
      "counts; racing sharded publish +\nrepublish locates %.1f%%\n"
      "reading guide: tables need not be bit-identical across worker counts "
      "—\nthe §4.4 contract is invariant convergence (membership, Property 1 "
      "occupancy,\nno pins, unique roots), which must hold at every thread "
      "count.\n",
      wave, core, speedup, threads, default_worker_count(),
      membership_match ? "identical" : "MISMATCH!",
      occupancy_match ? "identical" : "MISMATCH!", 100.0 * race_found);
  return contract_ok && race_found == 1.0 ? 0 : 1;
}
