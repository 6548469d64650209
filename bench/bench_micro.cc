// E12 — Local computation micro-costs.
//
// The paper's cost model (§3) charges only network traffic and ignores
// local computation, arguing none of it is time-consuming.  This benchmark
// substantiates that for our implementation: identifier manipulation,
// neighbor-set updates, routing-table scans and per-hop route decisions
// all run in nanoseconds-to-microseconds, orders of magnitude below any
// realistic network RTT.
//
// Two harnesses share this file:
//   * google-benchmark suites (when the library is available) — the
//     classic BM_ microbenchmarks, including a bitmask-vs-reference pair
//     for the select_slot hot path;
//   * a hand-rolled harness behind --json (no gbench dependency) that
//     times Router::select_slot against the linear-scan
//     select_slot_reference (tests/select_slot_reference.h) on the same
//     deterministic workload, verifies digit-for-digit agreement, counts
//     the allocations of the routing read path, and emits the metrics the
//     perf-smoke CI job gates via tools/check_bench.py.  Absolute
//     nanoseconds are machine-dependent; the gated metrics are the *ratio*
//     (bitmask speedup) and the exact agreement, work and allocation
//     counters.
//
// Every allocation goes through the counting operator new below, so the
// *_allocs metrics are exact counts (the same on every toolchain when 0).
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>

#include "bench_util.h"
#include "tests/select_slot_reference.h"

#ifdef TAPESTRY_HAVE_GBENCH
#include <benchmark/benchmark.h>
#endif

namespace {
std::uint64_t g_allocs = 0;  // bumped by every operator new below

void* counted_alloc(std::size_t n) {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++g_allocs;
  const auto a = static_cast<std::size_t>(al);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
// GCC flags free() inside a replaced operator delete once inlined next to
// a new-expression; the pairing is ours and correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace {

using namespace tap;
using namespace tap::bench;

/// Allocations `body` makes (single-threaded callers only).
template <typename Body>
std::uint64_t allocs_of(Body&& body) {
  const std::uint64_t before = g_allocs;
  body();
  return g_allocs - before;
}

// --------------------------------------------------------------------
// Shared select_slot workload: a static overlay whose deeper rows are
// mostly holes (the case the occupancy bitmask accelerates — the
// reference scan probes every slot of a row to find the lone self-entry).
// --------------------------------------------------------------------

struct SlotWorkload {
  std::unique_ptr<MetricSpace> space;
  std::unique_ptr<Network> net;
  std::vector<const TapestryNode*> nodes;
  struct Probe {
    std::uint32_t node;
    unsigned level;
    unsigned desired;
  };
  std::vector<Probe> probes;
};

SlotWorkload make_slot_workload(std::size_t n, std::uint64_t seed) {
  SlotWorkload w;
  Rng rng(seed);
  w.space = make_space("ring", n + 8, rng);
  w.net = build_static(*w.space, n, default_params(), seed);
  for (const auto& node : w.net->registry().nodes())
    if (node->alive) w.nodes.push_back(node.get());
  Rng wl(seed ^ 0x51a7);
  const unsigned digits = w.net->params().id.num_digits;
  const unsigned radix = w.net->params().id.radix();
  for (int i = 0; i < 4096; ++i)
    w.probes.push_back({static_cast<std::uint32_t>(wl.next_u64(w.nodes.size())),
                        static_cast<unsigned>(wl.next_u64(digits)),
                        static_cast<unsigned>(wl.next_u64(radix))});
  return w;
}

/// One full pass over the workload; returns a checksum of chosen digits
/// (keeps the optimizer honest and doubles as the agreement witness).
template <typename SelectFn>
std::uint64_t slot_pass(const SlotWorkload& w, SelectFn&& select) {
  std::uint64_t sum = 0;
  for (const auto& p : w.probes) {
    bool past_hole = false;
    const auto j =
        select(*w.nodes[p.node], p.level, p.desired, past_hole);
    sum = sum * 31 + (j.has_value() ? *j + 1 : 0) + (past_hole ? 7 : 0);
  }
  return sum;
}

double best_pass_ms(const std::function<std::uint64_t()>& pass, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    volatile std::uint64_t sink = pass();
    (void)sink;
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (ms < best) best = ms;
  }
  return best;
}

// --------------------------------------------------------------------
// Hand-rolled harness (also the --json CI path)
// --------------------------------------------------------------------

int run_handrolled(bool json) {
  const SlotWorkload w = make_slot_workload(512, 42);
  const Router& router = w.net->router();

  auto bitmask_pass = [&] {
    return slot_pass(w, [&](const TapestryNode& at, unsigned l, unsigned d,
                            bool& ph) { return router.select_slot(at, l, d, ph); });
  };
  auto reference_pass = [&] {
    return slot_pass(w, [&](const TapestryNode& at, unsigned l, unsigned d,
                            bool& ph) {
      return select_slot_reference(w.net->registry(), at, l, d, ph);
    });
  };

  const std::uint64_t sum_bitmask = bitmask_pass();
  const std::uint64_t sum_reference = reference_pass();
  const bool agree = sum_bitmask == sum_reference;

  // Warm, then take the best of several timed passes of many workload
  // sweeps each — enough work to dwarf clock granularity.
  constexpr int kSweeps = 64;
  const double ms_bitmask = best_pass_ms(
      [&] {
        std::uint64_t s = 0;
        for (int i = 0; i < kSweeps; ++i) s ^= bitmask_pass();
        return s;
      },
      5);
  const double ms_reference = best_pass_ms(
      [&] {
        std::uint64_t s = 0;
        for (int i = 0; i < kSweeps; ++i) s ^= reference_pass();
        return s;
      },
      5);
  const double speedup = ms_bitmask > 0.0 ? ms_reference / ms_bitmask : 1.0;
  const double ns_per_bitmask =
      ms_bitmask * 1e6 / (kSweeps * double(w.probes.size()));
  const double ns_per_reference =
      ms_reference * 1e6 / (kSweeps * double(w.probes.size()));

  // Full peek routes over the const read path (informational timing plus
  // a deterministic hop counter the baseline can gate exactly).
  const auto ids = w.net->node_ids();
  std::size_t peek_hops = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int q = 0; q < 2000; ++q) {
    const Guid guid = bench_guid(*w.net, 900 + q);
    peek_hops +=
        w.net->router().route_to_root_peek(ids[q % ids.size()], guid).hops;
  }
  const double peek_us = std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - t0)
                             .count() /
                         2000.0;

  // Zero-allocation gates on the routing read path: the same 2000 walks
  // step by step (route_to_root_peek's path vector aside), and the
  // select_slot workload under the heaviest member filter.
  const std::uint64_t peek_step_allocs = allocs_of([&] {
    for (int q = 0; q < 2000; ++q) {
      const Guid guid = bench_guid(*w.net, 900 + q);
      RouteState st;
      NodeId cur = ids[q % ids.size()];
      while (const auto next = router.route_step_peek(cur, guid, st))
        cur = *next;
    }
  });
  Router::ExcludeSet exclude;
  for (std::size_t i = 0; i < ids.size(); i += 37)
    exclude.insert(ids[i].value());
  const std::uint64_t filtered_allocs = allocs_of([&] {
    slot_pass(w, [&](const TapestryNode& at, unsigned l, unsigned d,
                     bool& ph) {
      NodeId member;
      return router.select_slot(at, l, d, ph, &exclude, /*live_only=*/true,
                                &member);
    });
  });

  if (json) {
    std::printf(
        "{\"bench\":\"bench_micro\",\"metrics\":{"
        "\"select_slot_agreement\":%d,\"select_slot_speedup\":%.3f,"
        "\"select_slot_ns_bitmask\":%.2f,\"select_slot_ns_reference\":%.2f,"
        "\"peek_route_hops_2000q\":%zu,\"peek_route_us\":%.2f,"
        "\"peek_step_allocs\":%llu,\"select_slot_filtered_allocs\":%llu}}\n",
        agree ? 1 : 0, speedup, ns_per_bitmask, ns_per_reference, peek_hops,
        peek_us, static_cast<unsigned long long>(peek_step_allocs),
        static_cast<unsigned long long>(filtered_allocs));
    return agree ? 0 : 1;
  }

  print_header("E12 — local micro-costs (hand-rolled)",
               "§3 cost model: local computation is negligible; occupancy "
               "bitmasks accelerate the select_slot hot path");
  std::printf("select_slot: bitmask %.1f ns/op, reference %.1f ns/op "
              "(%.2fx speedup), agreement %s\n",
              ns_per_bitmask, ns_per_reference, speedup,
              agree ? "exact" : "BROKEN");
  std::printf("route_to_root_peek: %.2f us/route (%zu hops over 2000 "
              "routes, const read path)\n",
              peek_us, peek_hops);
  std::printf("allocations: %llu over 2000 route_step_peek walks, %llu over "
              "the filtered select_slot workload\n",
              static_cast<unsigned long long>(peek_step_allocs),
              static_cast<unsigned long long>(filtered_allocs));
  return agree ? 0 : 1;
}

// --------------------------------------------------------------------
// google-benchmark suites
// --------------------------------------------------------------------

#ifdef TAPESTRY_HAVE_GBENCH

void BM_IdDigitExtraction(benchmark::State& state) {
  const IdSpec spec{4, 10};
  Rng rng(1);
  const Id id = Id::random(spec, rng);
  unsigned acc = 0;
  for (auto _ : state) {
    for (unsigned i = 0; i < spec.num_digits; ++i) acc += id.digit(i);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_IdDigitExtraction);

void BM_IdCommonPrefix(benchmark::State& state) {
  const IdSpec spec{4, 10};
  Rng rng(2);
  std::vector<Id> ids;
  for (int i = 0; i < 256; ++i) ids.push_back(Id::random(spec, rng));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ids[i % 256].common_prefix_len(ids[(i + 1) % 256]));
    ++i;
  }
}
BENCHMARK(BM_IdCommonPrefix);

void BM_NeighborSetConsider(benchmark::State& state) {
  // Offers to one slot, (0, 0), of an R = 3 table whose owner sits in
  // slot (0, 15): the packed array's consider path at a full slot.
  const IdSpec spec{4, 10};
  Rng rng(3);
  RoutingTable table(spec, Id::random(spec, rng).with_digit(0, 15), 3);
  std::vector<NodeId> ids;
  for (int i = 0; i < 1024; ++i)
    ids.push_back(Id::random(spec, rng).with_digit(0, 0));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.consider(0, 0, ids[i % 1024], rng.next_double()));
    ++i;
  }
}
BENCHMARK(BM_NeighborSetConsider);

void BM_SelectSlotBitmask(benchmark::State& state) {
  static const SlotWorkload w = make_slot_workload(512, 42);
  const Router& router = w.net->router();
  for (auto _ : state) {
    benchmark::DoNotOptimize(slot_pass(
        w, [&](const TapestryNode& at, unsigned l, unsigned d, bool& ph) {
          return router.select_slot(at, l, d, ph);
        }));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.probes.size()));
  state.SetLabel("occupancy-mask slot scan, 4096 probes/iter");
}
BENCHMARK(BM_SelectSlotBitmask)->Unit(benchmark::kMicrosecond);

void BM_SelectSlotReference(benchmark::State& state) {
  static const SlotWorkload w = make_slot_workload(512, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(slot_pass(
        w, [&](const TapestryNode& at, unsigned l, unsigned d, bool& ph) {
          return select_slot_reference(w.net->registry(), at, l, d, ph);
        }));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.probes.size()));
  state.SetLabel("pre-bitmask linear slot scan, 4096 probes/iter");
}
BENCHMARK(BM_SelectSlotReference)->Unit(benchmark::kMicrosecond);

void BM_RouteToRoot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  auto space = make_space("ring", n + 8, rng);
  auto net = build_static(*space, n, default_params(), 4);
  const auto ids = net->node_ids();
  std::size_t q = 0;
  for (auto _ : state) {
    const Guid guid = bench_guid(*net, q++);
    benchmark::DoNotOptimize(
        net->route_to_root(ids[q % ids.size()], guid));
  }
  state.SetLabel("full surrogate route, n=" + std::to_string(n));
}
BENCHMARK(BM_RouteToRoot)->Arg(256)->Arg(1024);

void BM_RouteToRootPeek(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  auto space = make_space("ring", n + 8, rng);
  auto net = build_static(*space, n, default_params(), 4);
  const auto ids = net->node_ids();
  std::size_t q = 0;
  for (auto _ : state) {
    const Guid guid = bench_guid(*net, q++);
    benchmark::DoNotOptimize(
        net->router().route_to_root_peek(ids[q % ids.size()], guid));
  }
  state.SetLabel("const lock-free surrogate route, n=" + std::to_string(n));
}
BENCHMARK(BM_RouteToRootPeek)->Arg(256)->Arg(1024);

void BM_LocateHit(benchmark::State& state) {
  const std::size_t n = 512;
  Rng rng(6);
  auto space = make_space("ring", n + 8, rng);
  auto net = build_static(*space, n, default_params(), 6);
  const auto ids = net->node_ids();
  Rng wl(7);
  for (int i = 0; i < 64; ++i)
    net->publish(ids[wl.next_u64(ids.size())], bench_guid(*net, i));
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net->locate(ids[q % ids.size()], bench_guid(*net, q % 64)));
    ++q;
  }
}
BENCHMARK(BM_LocateHit);

void BM_StaticTableBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto workers = static_cast<std::size_t>(state.range(1));
  Rng rng(8);
  auto space = make_space("ring", n + 8, rng);
  for (auto _ : state) {
    state.PauseTiming();
    auto net = std::make_unique<Network>(*space, default_params(), 8);
    std::vector<Location> locs(n);
    for (std::size_t i = 0; i < n; ++i) locs[i] = i;
    net->insert_static_bulk(locs, workers);
    state.ResumeTiming();
    net->rebuild_static_tables(workers);
    benchmark::DoNotOptimize(net->total_table_entries());
  }
  state.SetLabel("workers=" + std::to_string(workers));
}
BENCHMARK(BM_StaticTableBuild)
    ->Args({256, 1})
    ->Args({256, 4})
    ->Unit(benchmark::kMillisecond);

void BM_DynamicJoin(benchmark::State& state) {
  const std::size_t n = 256;
  Rng rng(9);
  auto space = make_space("ring", n + 4096, rng);
  auto net = grow(*space, n, default_params(), 9);
  std::size_t next = n;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net->join(next++));
  }
  state.SetLabel("wall-clock cost of one full join protocol run");
}
BENCHMARK(BM_DynamicJoin)->Unit(benchmark::kMicrosecond)->Iterations(512);

#endif  // TAPESTRY_HAVE_GBENCH

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--json") == 0) return run_handrolled(true);
#ifdef TAPESTRY_HAVE_GBENCH
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
#else
  return run_handrolled(false);
#endif
}
