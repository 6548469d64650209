// tapbench: runs one benchmark workload in this process and prints one
// JSON line of results (benchmark/run.py is the user-facing entry point).
//
//   tapbench --workload NAME [--seed N] [--scale F] [--trace-dir DIR]
//            [--tmpdir DIR]
//
// Untraced (default): sets the workload up five times (setup_s is the
// median; once at a quick-sized scale), runs its measured phase at
// --scale, checks the outcome, and reports the end-to-end metrics.  With
// --trace-dir: runs the phase at a tenth of --scale twice on fresh
// overlays with the same seed — untraced, then traced — writes
// DIR/NAME.trace.json and reports the per-layer ledger instead.
//
// Builders and waves use min(4, hardware threads) workers.
//
// Every allocation goes through the counting operator new below, so the
// *_allocs metrics and allocs_per_op are exact per-thread counts.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>

#include "benchmark/common.h"
#include "benchmark/ledger.h"
#include "benchmark/spans.h"
#include "benchmark/workloads.h"
#include "src/common/stats.h"

namespace {
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++t_allocs;
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++t_allocs;
  const auto a = static_cast<std::size_t>(al);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}
}  // namespace

std::uint64_t tapbench::thread_allocs() noexcept { return t_allocs; }

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

namespace {

using namespace tapbench;

/// Scales below this are smoke runs (run.py --quick): one setup, not five.
constexpr double kQuickScale = 0.1;

struct Args {
  std::string workload;
  RunConfig cfg;
  std::string trace_dir;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "tapbench: %s\nusage: tapbench --workload NAME [--seed N] "
               "[--scale F] [--trace-dir DIR] [--tmpdir DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  a.cfg.tmpdir = "tapbench.tmp";
  a.cfg.workers = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.cfg.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--scale") {
      a.cfg.scale = std::strtod(v, &end);
    } else if (flag == "--trace-dir") {
      a.trace_dir = v;
    } else if (flag == "--tmpdir") {
      a.cfg.tmpdir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == v))
      usage(("bad value for " + flag).c_str());
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end())
    usage("unknown or missing --workload");
  if (!(a.cfg.scale > 0.0)) usage("--scale must be positive");
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Args& a, const PhaseResult& r, bool correct,
                  const std::string& metrics, const std::string& exact,
                  const std::string& info) {
  std::string errors;
  for (const std::string& e : r.errors)
    errors += (errors.empty() ? "" : ",") + json_string(e);
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"traced\":%s,\"correct\":%s,"
      "\"attempted\":%llu,\"failed\":%llu,\"errors\":[%s],\"metrics\":{%s},"
      "\"exact\":{%s},\"info\":{%s}}\n",
      json_string(a.workload).c_str(),
      static_cast<unsigned long long>(a.cfg.seed),
      a.trace_dir.empty() ? "false" : "true", correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(r.ops, 1)),
      static_cast<unsigned long long>(r.failures), errors.c_str(),
      metrics.c_str(), exact.c_str(), info.c_str());
}

std::string field(const char* name, double v) {
  return std::string("\"") + name + "\":" + num(v);
}

std::string fields(const LayerMetrics& m) {
  std::string out;
  for (const auto& [name, v] : m)
    out += (out.empty() ? "" : ",") + field(name.c_str(), v);
  return out;
}

/// Ops per wall second and per-op latency percentiles of one phase.  No
/// regression bound applies to them (README.md, "Timings").
LayerMetrics timings(const PhaseResult& r) {
  tap::Summary lat;
  lat.add_all(r.latency_ns);
  const auto us = [&lat](double p) {
    return lat.empty() ? 0.0 : lat.percentile(p) / 1e3;
  };
  return {{"ops_per_s", ratio(static_cast<double>(r.ops), r.seconds)},
          {"op_p50_us", us(50)},
          {"op_p99_us", us(99)}};
}

int run_untraced(const Args& a) {
  auto w = make_workload(a.workload, a.cfg);
  tap::Summary setups;
  const int n_setups = a.cfg.scale < kQuickScale ? 1 : 5;
  for (int i = 0; i < n_setups; ++i) setups.add(w->setup());
  PhaseResult r = w->run(a.cfg.scale, /*traced=*/false);
  const double rss = peak_rss_mb();
  w->check(r);

  const double ops = static_cast<double>(r.ops);
  const std::string metrics =
      field("setup_s", setups.median()) + "," +
      field("msgs_per_op", ratio(r.msgs, ops)) + "," +
      field("stretch_mean", ratio(r.stretch_sum, r.stretch_n)) + "," +
      field("hops_mean", ratio(r.hops, r.hops_n)) + "," +
      field("peak_rss_mb", rss) + "," +
      field("availability", ratio(r.found, r.locates));
  std::string exact;
  if (w->deterministic())
    exact = field("ops", ops) + "," + field("msgs_per_op", ratio(r.msgs, ops)) +
            "," + field("wire_bytes_per_op", ratio(r.wire_bytes, ops)) + "," +
            field("allocs_per_op", ratio(r.allocs, ops)) + "," +
            field("stretch_mean", ratio(r.stretch_sum, r.stretch_n)) + "," +
            field("hops_mean", ratio(r.hops, r.hops_n)) + "," +
            field("availability", ratio(r.found, r.locates));
  std::string setup_list;
  for (const double s : setups.samples())
    setup_list += (setup_list.empty() ? "" : ",") + num(s);
  const std::string info =
      field("ops", ops) + "," + field("seconds", r.seconds) + "," +
      fields(timings(r)) + "," +
      field("latency_samples", static_cast<double>(r.latency_ns.size())) +
      "," + field("locates", static_cast<double>(r.locates)) + "," +
      "\"setups_s\":[" + setup_list + "]";
  const bool correct = r.failures == 0;
  print_result(a, r, correct, metrics, exact, info);
  return correct ? 0 : 1;
}

int run_traced(const Args& a) {
  const double scale = a.cfg.scale / 10.0;
  PhaseResult untraced;
  {
    // Set up twice so the untraced phase, like the traced one after it,
    // runs on memory the process has already faulted in.
    auto w = make_workload(a.workload, a.cfg);
    (void)w->setup();
    (void)w->setup();
    untraced = w->run(scale, /*traced=*/false);
  }
  auto w = make_workload(a.workload, a.cfg);
  (void)w->setup();
  PhaseResult r;
  {
    spans::TracedNetwork traced(w->net());
    r = w->run(scale, /*traced=*/true);
  }
  const std::string path = a.trace_dir + "/" + a.workload + ".trace.json";
  const spans::Summary shares = spans::write_and_analyse(path, 200000);
  w->check(r);

  LayerMetrics layers = run_ledger(*w, r, a.cfg);
  const LayerMetrics plain = timings(untraced);
  layers.insert(layers.end(), plain.begin(), plain.end());
  layers.emplace_back("trace.op.self_share", shares.op);
  layers.emplace_back("trace.transport.self_share", shares.transport);
  layers.emplace_back("trace.repair.self_share", shares.repair);
  layers.emplace_back(
      "trace.overhead_ratio",
      ratio(plain.front().second,
            ratio(static_cast<double>(r.ops), r.seconds)));

  std::string metrics, exact;
  for (const auto& [name, v] : layers) {
    metrics += (metrics.empty() ? "" : ",") + field(name.c_str(), v);
    const bool counted = name.size() > 7 &&
                         name.compare(name.size() - 7, 7, "_allocs") == 0;
    if (w->deterministic() && (counted || name == "events.allocs_per_event"))
      exact += (exact.empty() ? "" : ",") + field(name.c_str(), v);
  }
  const std::string info =
      field("spans", static_cast<double>(shares.spans)) + "," +
      field("ops_traced", static_cast<double>(shares.ops_traced)) + "," +
      field("ops_total", static_cast<double>(shares.ops_total)) +
      ",\"trace_file\":" + json_string(path);
  const bool correct = r.failures == 0;
  print_result(a, r, correct, metrics, exact, info);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    return a.trace_dir.empty() ? run_untraced(a) : run_traced(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tapbench: %s failed: %s\n", a.workload.c_str(),
                 e.what());
    return 1;
  }
}
