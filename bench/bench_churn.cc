// E7 — Availability under churn with soft state (paper §4.3, §5, §6.5).
//
// Claims reproduced:
//   * voluntary departures never interrupt availability (§5.1);
//   * involuntary failures make objects rooted at (or pathed through) the
//     corpse unavailable until the next republish interval, then recover
//     (§5.2 + §6.5's soft-state argument);
//   * shorter republish intervals buy higher availability at higher
//     maintenance traffic — the soft-state trade-off.
//
// Setup: a ChurnDriver scenario (Poisson joins/leaves/failures, continuous
// lookups) over a 256-node network with 128 objects, fully event-driven:
// publishes and queries decompose per hop on the EventQueue, republish /
// expiry / heartbeat run as subsystem timers at the configured interval,
// so queries genuinely interleave with repairs (the regime §6.5 assumes).
//
// --json additionally gates the metrics registry's hot-path cost: the
// interval-4 trial runs with recording disabled and enabled in
// kOverheadPairs interleaved pairs and reports the ratio of the two
// minimum wall times — the ≤5% overhead budget of the observability
// work.  It also runs the targeted-rootfail scenario (the tapestry_sim
// --scenario=rootfail preset) and gates its overall and post-failure
// availability against the baseline.
#include <chrono>
#include <cstring>

#include "bench_util.h"
#include "src/sim/churn_driver.h"
#include "src/sim/metrics.h"
#include "src/sim/thread_pool.h"

namespace tap::bench {
namespace {

struct Result {
  double republish_interval;
  double availability_all;   // success rate over the whole run
  double availability_fail;  // success rate in windows after failures
  double maintenance_msgs;   // republish+sweep traffic per unit time
  std::size_t lookups;
};

Result run(double interval, std::uint64_t seed) {
  Rng rng(seed);
  auto space = make_space("ring", 512, rng);
  TapestryParams params = default_params();
  params.pointer_ttl = 2.0 * interval;
  auto net = grow(*space, 256, params, seed);

  ChurnScenario sc;
  sc.horizon = 40.0;
  sc.epoch = 5.0;
  // The pre-driver loop drew one churn event per exponential(2.0) with a
  // 0.4 / 0.3 / 0.3 join/leave/fail split; the same mix as rates:
  sc.join_rate = 0.8;
  sc.leave_rate = 0.6;
  sc.fail_rate = 0.6;
  sc.min_nodes = 128;
  sc.query_rate = 20.0;  // one lookup per 0.05 time units
  sc.post_failure_window = interval;
  sc.objects = 128;
  sc.replicas = 1;
  sc.republish_interval = interval;
  sc.expiry_interval = interval;
  sc.heartbeat_interval = interval;
  sc.seed = seed;

  ChurnDriver driver(*net, sc);
  const ChurnReport rep = driver.run();

  Result r;
  r.republish_interval = interval;
  r.availability_all = rep.availability();
  r.availability_fail = rep.availability_post_failure();
  r.maintenance_msgs =
      static_cast<double>(rep.maintenance_msgs) / sc.horizon;
  r.lookups = rep.queries;
  return r;
}

// Targeted root failure (the --scenario=rootfail preset of tapestry_sim):
// no background churn, zipf-ranked query targets, and one scripted kill of
// the surrogate roots of the three hottest objects a quarter into the run.
// Soft-state republish is the only repair mechanism, so post-failure
// availability gates the directory's worst-case recovery path.
Result run_rootfail(std::uint64_t seed) {
  Rng rng(seed);
  auto space = make_space("ring", 512, rng);
  TapestryParams params = default_params();
  params.pointer_ttl = 8.0;
  auto net = grow(*space, 256, params, seed);

  ChurnScenario sc;
  sc.horizon = 40.0;
  sc.epoch = 5.0;
  sc.join_rate = 0.0;
  sc.leave_rate = 0.0;
  sc.fail_rate = 0.0;
  sc.min_nodes = 128;
  sc.query_rate = 20.0;
  sc.post_failure_window = 4.0;
  sc.objects = 128;
  sc.replicas = 1;
  sc.republish_interval = 4.0;
  sc.expiry_interval = 4.0;
  sc.heartbeat_interval = 4.0;
  sc.popularity = ChurnScenario::Popularity::kZipf;
  sc.rootfail_at = sc.horizon / 4.0;
  sc.rootfail_count = 3;
  sc.seed = seed;

  ChurnDriver driver(*net, sc);
  const ChurnReport rep = driver.run();

  Result r;
  r.republish_interval = sc.republish_interval;
  r.availability_all = rep.availability();
  r.availability_fail = rep.availability_post_failure();
  r.maintenance_msgs = static_cast<double>(rep.maintenance_msgs) / sc.horizon;
  r.lookups = rep.queries;
  return r;
}

// Off/on trial pairs behind metrics_overhead_ratio.  A trial takes tens of
// milliseconds, so the minimum of three per side often caught one side in
// a noisy slice of a shared 4-vCPU host and read past the 1.05 bound;
// fifteen per side mostly reads within a few percent of 1.
constexpr int kOverheadPairs = 15;

// Wall time of one full interval-4 trial (growth + driver) with metric
// recording toggled; the workload itself is identical either way — the
// enabled() gate never changes control flow.
double timed_trial(bool recording_on) {
  metrics::set_enabled(recording_on);
  const auto t0 = std::chrono::steady_clock::now();
  (void)run(4.0, 9002);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

int run_json() {
  metrics::set_enabled(true);
  const Result det = run(4.0, 9002);
  const Result rf = run_rootfail(9003);

  double best_on = 1e300;
  double best_off = 1e300;
  for (int rep = 0; rep < kOverheadPairs; ++rep) {
    best_off = std::min(best_off, timed_trial(false));
    best_on = std::min(best_on, timed_trial(true));
  }
  metrics::set_enabled(true);
  const double ratio = best_off <= 0.0 ? 1.0 : best_on / best_off;

  std::printf("{\"bench\":\"bench_churn\",\"metrics\":{"
              "\"availability_i4\":%.4f,\"availability_post_i4\":%.4f,"
              "\"lookups_i4\":%zu,\"metrics_overhead_ratio\":%.4f,"
              "\"rootfail_availability\":%.4f,"
              "\"rootfail_availability_post\":%.4f,"
              "\"rootfail_lookups\":%zu}}\n",
              det.availability_all, det.availability_fail, det.lookups, ratio,
              rf.availability_all, rf.availability_fail, rf.lookups);
  return 0;
}

}  // namespace
}  // namespace tap::bench

int main(int argc, char** argv) {
  using namespace tap;
  using namespace tap::bench;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    else {
      std::fprintf(stderr, "usage: bench_churn [--json]\n");
      return 2;
    }
  }
  if (json) return run_json();
  print_header("E7 — availability under churn",
               "§4.3/§5/§6.5: objects stay available through voluntary "
               "churn; failures recover at the republish boundary; shorter "
               "soft-state intervals buy availability with traffic");

  const std::vector<double> intervals{1.0, 2.0, 4.0, 8.0};
  const auto results = run_trials<Result>(intervals.size(), [&](std::size_t i) {
    return run(intervals[i], 9000 + i);
  });

  TextTable table({"republish interval", "availability (all)",
                   "availability (post-failure window)",
                   "maintenance msgs/time", "lookups"});
  for (const Result& r : results)
    table.add_row({fmt(r.republish_interval, 1),
                   fmt(r.availability_all * 100.0, 2) + "%",
                   fmt(r.availability_fail * 100.0, 2) + "%",
                   fmt(r.maintenance_msgs, 0), fmt(r.lookups)});
  table.print();
  std::printf(
      "\nreading guide: overall availability stays high for every\n"
      "interval (voluntary churn never interrupts service); the\n"
      "post-failure window column degrades as the republish interval\n"
      "grows — the paper's soft-state trade-off made quantitative.\n"
      "queries and repairs interleave per-hop on the event queue.\n");
  return 0;
}
