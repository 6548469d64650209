// E13 — Parallel overlay construction.
//
// The paper assumes overlays of massive size; this bench proves the repo
// can stand one up concurrently.  It builds the same overlay twice — once
// with one worker, once with --threads workers — through the bulk pipeline
// (register_bulk + parallel rebuild_static_tables + publish_batch), checks
// the two results are bit-identical (the pipeline's determinism contract:
// same seed + any thread count => identical tables), and reports the
// wall-clock speedup.
//
// Flags: --nodes=N [50000]  --objects=M [nodes/10]  --threads=T [4]
//        --seed=S [1]  --space=ring|transit-stub [ring]
//        --json (machine-readable metrics for CI)
//
// JSON metrics (tools/check_bench.py compares them against
// bench/baselines/bench_parallel_build.json for the ring and
// bench_parallel_build_transit_stub.json for transit-stub):
//   tables_match / stores_match   determinism contract, exact
//   total_table_entries           deterministic table mass, exact
//   locate_found                  query success over the batch-published
//                                 workload, exact
//   distance_evals                metric distance evaluations of one
//                                 extra, untimed serial table build, exact
//                                 (the static builder's work, independent
//                                 of the runner)
//   table_bytes_per_node          mean RoutingTable::heap_bytes of the
//                                 serial build's nodes, exact (the routing
//                                 layer's memory per node)
//   build_speedup                 wall-clock serial/parallel ratio; a
//                                 floor gate — it depends on the runner's
//                                 core count (1.0 on a single-core box)
#include <chrono>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "src/common/flags.h"
#include "src/sim/thread_pool.h"
#include "src/tapestry/fingerprint.h"

namespace tap::bench {
namespace {

double wall_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Distance evaluations of one serial rebuild_static_tables over the same
/// nodes build_once registers.
std::uint64_t count_build_distance_evals(const MetricSpace& space,
                                         const TapestryParams& params,
                                         std::size_t nodes,
                                         std::uint64_t seed) {
  CountingSpace counting(space);
  Network net(counting, params, seed);
  std::vector<Location> locs(nodes);
  for (std::size_t i = 0; i < nodes; ++i) locs[i] = i;
  net.insert_static_bulk(locs, 1);
  const std::uint64_t before = counting.calls();
  net.rebuild_static_tables(1);
  return counting.calls() - before;
}

struct BuildResult {
  double build_ms = 0.0;
  double publish_ms = 0.0;
  std::uint64_t tables_fp = 0;
  std::uint64_t stores_fp = 0;
  std::size_t entries = 0;
  double table_bytes = 0.0;
  std::unique_ptr<Network> net;  // the built overlay, for further probing
};

BuildResult build_once(const MetricSpace& space, const TapestryParams& params,
                       std::size_t nodes, std::size_t objects,
                       std::size_t workers, std::uint64_t seed) {
  BuildResult r;
  r.net = std::make_unique<Network>(space, params, seed);
  Network& net = *r.net;
  std::vector<Location> locs(nodes);
  for (std::size_t i = 0; i < nodes; ++i) locs[i] = i;

  auto t0 = std::chrono::steady_clock::now();
  net.insert_static_bulk(locs, workers);
  net.rebuild_static_tables(workers);
  r.build_ms = wall_ms(t0);
  r.table_bytes = table_bytes_per_node(net);

  Rng wl(seed ^ 0xb47c);
  const auto ids = net.node_ids();
  std::vector<ObjectDirectory::PublishRequest> pubs;
  pubs.reserve(objects);
  for (std::size_t i = 0; i < objects; ++i)
    pubs.push_back({ids[wl.next_u64(ids.size())], bench_guid(net, i)});
  t0 = std::chrono::steady_clock::now();
  net.publish_batch(pubs, workers);
  r.publish_ms = wall_ms(t0);

  r.tables_fp = fingerprint_tables(net);
  r.stores_fp = fingerprint_stores(net);
  r.entries = net.total_table_entries();
  return r;
}

}  // namespace
}  // namespace tap::bench

int main(int argc, char** argv) {
  using namespace tap;
  using namespace tap::bench;

  std::size_t nodes = 50'000, objects = 0, threads = 4;
  std::uint64_t seed = 1;
  std::string space_kind = "ring";
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (number_flag(argv[i], "--nodes", &nodes) ||
        number_flag(argv[i], "--objects", &objects) ||
        number_flag(argv[i], "--threads", &threads) ||
        number_flag(argv[i], "--seed", &seed) ||
        parse_flag(argv[i], "--space", &space_kind))
      continue;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (objects == 0) objects = nodes / 10;
  if (space_kind != "ring" && space_kind != "transit-stub") {
    std::fprintf(stderr, "--space must be ring or transit-stub\n");
    return 2;
  }

  Rng rng(seed);
  auto space = make_space(space_kind, nodes + 8, rng);
  const TapestryParams params = default_params();

  const BuildResult serial =
      build_once(*space, params, nodes, objects, 1, seed);
  const BuildResult parallel =
      build_once(*space, params, nodes, objects, threads, seed);

  const bool tables_match = serial.tables_fp == parallel.tables_fp;
  const bool stores_match = serial.stores_fp == parallel.stores_fp;
  const double build_speedup = parallel.build_ms > 0.0
                                   ? serial.build_ms / parallel.build_ms
                                   : 1.0;
  const double publish_speedup = parallel.publish_ms > 0.0
                                     ? serial.publish_ms / parallel.publish_ms
                                     : 1.0;

  // Query the parallel-built overlay: every batched publish must resolve.
  Network& net = *parallel.net;
  const auto ids = net.node_ids();
  Rng wl(seed ^ 0x9ead);
  const std::size_t probes = std::min<std::size_t>(objects, 2000);
  std::size_t found = 0;
  for (std::size_t q = 0; q < probes; ++q)
    if (net.locate(ids[wl.next_u64(ids.size())], bench_guid(net, q)).found)
      ++found;
  const double locate_found =
      probes == 0 ? 1.0 : double(found) / double(probes);
  const std::uint64_t distance_evals =
      count_build_distance_evals(*space, params, nodes, seed);

  if (json) {
    std::printf(
        "{\"bench\":\"bench_parallel_build\",\"metrics\":{"
        "\"tables_match\":%d,\"stores_match\":%d,"
        "\"total_table_entries\":%zu,\"locate_found\":%.4f,"
        "\"distance_evals\":%llu,\"table_bytes_per_node\":%.2f,"
        "\"build_speedup\":%.3f,\"publish_speedup\":%.3f,"
        "\"build_ms_serial\":%.1f,\"build_ms_parallel\":%.1f,"
        "\"threads\":%zu,\"hardware_threads\":%zu}}\n",
        tables_match ? 1 : 0, stores_match ? 1 : 0, serial.entries,
        locate_found, static_cast<unsigned long long>(distance_evals),
        serial.table_bytes, build_speedup, publish_speedup, serial.build_ms,
        parallel.build_ms, threads, default_worker_count());
    return tables_match && stores_match ? 0 : 1;
  }

  print_header("E13 — parallel overlay construction",
               "bulk pipeline determinism + build-time scaling "
               "(same seed, any thread count => identical tables)");
  print_space_info(*space, seed);
  TextTable table({"workers", "build ms", "publish ms", "tables", "stores"});
  table.add_row({"1", fmt(serial.build_ms, 0), fmt(serial.publish_ms, 1),
                 "-", "-"});
  table.add_row({fmt(threads), fmt(parallel.build_ms, 0),
                 fmt(parallel.publish_ms, 1),
                 tables_match ? "identical" : "MISMATCH!",
                 stores_match ? "identical" : "MISMATCH!"});
  table.print();
  std::printf(
      "\nbuild speedup %.2fx, publish speedup %.2fx at %zu workers "
      "(%zu hardware threads); %zu table entries (%.0f table bytes per "
      "node);\nlocate success %.1f%%; "
      "%llu distance evaluations per serial table build\n"
      "reading guide: speedup tracks min(workers, cores); the fingerprints\n"
      "must match for every thread count — the determinism contract.\n",
      build_speedup, publish_speedup, threads, default_worker_count(),
      serial.entries, serial.table_bytes, 100.0 * locate_found,
      static_cast<unsigned long long>(distance_evals));
  return tables_match && stores_match ? 0 : 1;
}
