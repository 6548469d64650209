// ChurnDriver: scriptable event-driven churn scenarios (paper §6.5).
//
// Schedules node joins / voluntary leaves / fail-stop crashes, object
// publishes, soft-state republish and expiry timers, heartbeat repair
// sweeps and locate queries as interleaved EventQueue events against one
// Network, then reports per-epoch and aggregate availability / stretch /
// maintenance-cost statistics.  Publish/locate decompose into one event
// per routing hop (ObjectDirectory::publish_async / locate_async), and
// repair and republish run on subsystem timers — queries genuinely observe
// mid-repair state, the regime §6.5's availability results assume.
//
// Everything is deterministic in (scenario, Network seed): the driver owns
// its workload Rng, the EventQueue breaks timestamp ties by scheduling
// order, and the driver records a replayable event log (see event_log()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/stats.h"
#include "src/tapestry/hotspot.h"
#include "src/tapestry/network.h"

namespace tap {

/// Seed-deterministic object-popularity distribution for query target
/// selection.  Uniform draws stay byte-identical to the historical
/// `rng.next_u64(n)` call (one u64 from the stream, same value), so every
/// pre-existing scenario replays unchanged; weighted (zipf / flash-boosted)
/// draws consume one `next_double` instead and invert a cumulative weight
/// table.
class PopularityDist {
 public:
  PopularityDist() = default;

  /// Every object equally likely — the default workload.
  static PopularityDist uniform(std::size_t n);
  /// Zipf(s): object at popularity rank r (= index r) has weight
  /// 1 / (r+1)^s.  s = 0 degenerates to a weighted uniform.
  static PopularityDist zipf(std::size_t n, double s);

  /// Draws an object index from the driver's workload Rng.
  [[nodiscard]] std::size_t draw(Rng& rng) const;

  /// Multiplies object `index`'s weight by `factor` (flash crowd).  A
  /// uniform distribution switches to its weighted equivalent — its draws
  /// then consume next_double like any weighted distribution.
  void boost(std::size_t index, double factor);

  [[nodiscard]] bool weighted() const noexcept { return !cdf_.empty(); }

 private:
  void rebuild();

  std::size_t n_ = 0;
  std::vector<double> weights_;  // empty while exactly uniform
  std::vector<double> cdf_;      // running sums of weights_; back() = total
};

/// Scenario script: Poisson processes plus timer intervals, all in
/// simulated time units.  A rate of zero disables that process; an
/// interval of zero disables that timer.
struct ChurnScenario {
  double horizon = 40.0;  ///< simulated run length
  double epoch = 5.0;     ///< statistics bucket length

  // Membership churn (Poisson event rates, per time unit).
  double join_rate = 0.8;
  double leave_rate = 0.6;  ///< voluntary §5.1 departures (non-servers only)
  double fail_rate = 0.6;   ///< fail-stop §5.2 crashes (servers included)
  std::size_t min_nodes = 16;  ///< no departures below this population

  // Query workload.
  double query_rate = 20.0;
  /// Object-popularity skew of the query targets.  kUniform replays the
  /// historical workload byte for byte; kZipf ranks objects by index.
  enum class Popularity { kUniform, kZipf };
  Popularity popularity = Popularity::kUniform;
  double zipf_s = 1.0;  ///< zipf exponent (kZipf only)
  /// Flash crowd: at `flash_at` time units into the run, multiply object
  /// `flash_index`'s popularity weight by `flash_factor`.  0 disables.
  double flash_at = 0.0;
  double flash_factor = 1000.0;
  std::size_t flash_index = 0;
  /// Demand-driven replica placement (src/tapestry/hotspot.h), fed from
  /// every query completion; knobs in `hotspot`.
  bool hotspot_replication = false;
  HotspotParams hotspot{};
  double post_failure_window =
      4.0;  ///< queries issued this soon after a crash are bucketed
            ///< separately (availability_post_failure)

  // Object workload, published at t = 0 (publish_async).
  std::size_t objects = 64;
  unsigned replicas = 1;

  // Maintenance timers (§6.5 / §5.2).
  double republish_interval = 4.0;
  double expiry_interval = 1.0;
  double heartbeat_interval = 4.0;

  // Fault script (tentpole scenarios; zero disables each knob).
  /// Network partition: at `partition_at` time units into the run the live
  /// population is split into two halves (odd ranks of the sorted id list
  /// form side B) that cannot exchange messages; at `partition_heal` the
  /// cut heals.  Partitioned members stay alive — routing skips them
  /// without purging, so healing needs no repair wave, only the next
  /// republish round to refresh cross-side pointers.
  double partition_at = 0.0;
  double partition_heal = 0.0;
  /// Correlated rack failure: at `rackfail_at`, every live node in the
  /// most-populated transit-stub domain fail-stops at once.  Requires the
  /// network's metric space to be a TransitStubMetric (TAP_CHECKed).
  double rackfail_at = 0.0;
  /// Targeted root failure: at `rootfail_at`, the current surrogate roots
  /// of the `rootfail_count` hottest published objects (by popularity
  /// rank) fail-stop at once — the adversarial worst case for pointer
  /// availability, since each kill erases exactly the records that object's
  /// locates depend on.  A root that is the object's own storage server is
  /// skipped (killing the replica would make the object genuinely
  /// unlocatable rather than exercise the directory).  Zero disables.
  double rootfail_at = 0.0;
  std::size_t rootfail_count = 3;
  /// Mobile-style churn bursts: `burst_len` time units of churn at
  /// `burst_factor` times the base rates, recurring `burst_every` time
  /// units after the run start / the previous burst's end.  The multiplier
  /// scales only the event rate — the join/leave/fail mix is unchanged.
  double burst_every = 0.0;
  double burst_len = 0.0;
  double burst_factor = 8.0;

  /// Metrics JSONL sink: when non-empty, the run resets the global metrics
  /// registry and appends one `{"t":..,"epoch":..,"metrics":{..}}` line per
  /// epoch boundary plus a terminal line for the drain.  Only deterministic
  /// metrics are included (snapshot_json(false)), so the stream is
  /// byte-identical across same-seed runs.
  std::string metrics_out{};

  std::uint64_t seed = 1;  ///< workload randomness (driver-owned Rng)

  // Checkpoint epochs (persistent object-store backend): every
  // `checkpoint_interval` simulated time units the driver flushes all node
  // stores and writes the membership/replica manifest to `checkpoint_dir`
  // (Network::checkpoint_stores), so a killed run can resume from the last
  // checkpoint.  Zero disables; a non-zero interval requires a directory.
  double checkpoint_interval = 0.0;
  std::string checkpoint_dir{};
};

/// One statistics bucket.  Queries are bucketed by completion time; churn
/// events by occurrence time.
struct ChurnEpoch {
  double t0 = 0.0, t1 = 0.0;
  std::size_t joins = 0, leaves = 0, fails = 0;
  std::size_t queries = 0, found = 0;
  std::size_t queries_post_failure = 0, found_post_failure = 0;
  std::size_t queries_skipped = 0;  ///< drawn object had no live replica
  double stretch_sum = 0.0;
  std::size_t stretch_n = 0;
  std::size_t maintenance_msgs = 0;  ///< heartbeat + republish (this epoch)
  std::size_t churn_msgs = 0;        ///< join/leave protocol (this epoch)
  std::size_t live_nodes = 0;        ///< population at epoch end
  Summary hops;  ///< per-query hop counts of found queries (completion time)

  /// Adds `o`'s counters, stretch sums and hop samples to this bucket.
  void add(const ChurnEpoch& o);

  [[nodiscard]] double availability() const {
    return queries == 0 ? 1.0
                        : static_cast<double>(found) /
                              static_cast<double>(queries);
  }
  [[nodiscard]] double availability_post_failure() const {
    return queries_post_failure == 0
               ? 1.0
               : static_cast<double>(found_post_failure) /
                     static_cast<double>(queries_post_failure);
  }
  [[nodiscard]] double mean_stretch() const {
    return stretch_n == 0 ? 0.0 : stretch_sum / static_cast<double>(stretch_n);
  }
};

/// The run's totals are one more bucket: window [0, drain end], the final
/// population, and the sum of every epoch and the drain.  Beside them sit
/// the per-epoch series and the run-wide counters no bucket keeps.
struct ChurnReport : ChurnEpoch {
  std::vector<ChurnEpoch> epochs;
  /// Terminal bucket for the drain phase: once the horizon is reached and
  /// the recurring processes are stopped, completions of still-in-flight
  /// operations (and their traffic) land here instead of being silently
  /// clamped into the last epoch — the last epoch's availability/traffic
  /// figures describe only its own window.  `drain.t0` is the horizon,
  /// `drain.t1` the time the queue actually drained.
  ChurnEpoch drain;
  std::uint64_t events_fired = 0;  ///< EventQueue events over the run
  // Per-node query load: how many found queries each pointer holder
  // resolved (max / number of distinct resolvers; `found` is the total, so
  // mean load over resolvers is found / load_nodes).
  std::size_t load_max = 0;
  std::size_t load_nodes = 0;
  // Locate-cache counters for the run (zeros when the cache is disabled).
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_fallbacks = 0;
  // Demand-driven replication counters (zeros unless hotspot_replication).
  std::size_t hotspot_promotions = 0;
  std::size_t hotspot_demotions = 0;
};

class ChurnDriver {
 public:
  /// `net` must already contain its initial population (bootstrap + joins
  /// or the static builder); the driver churns whatever it is handed.
  ChurnDriver(Network& net, ChurnScenario scenario);

  ChurnDriver(const ChurnDriver&) = delete;
  ChurnDriver& operator=(const ChurnDriver&) = delete;

  /// Runs the scenario to its horizon, drains in-flight operations, and
  /// returns the report.  Single-shot: a driver instance runs once.
  ChurnReport run();

  /// Deterministic, replayable record of every workload decision and
  /// outcome: "<kind> t=<time> <detail>" lines in firing order.  Two runs
  /// with identical (scenario, network construction) produce identical
  /// logs — the replay test's oracle.
  [[nodiscard]] const std::vector<std::string>& event_log() const noexcept {
    return log_;
  }

  /// The object population the scenario published (available after run();
  /// callers audit final locatability against servers_of()).
  [[nodiscard]] const std::vector<Guid>& objects() const noexcept {
    return objects_;
  }

 private:
  void publish_initial_objects();
  void schedule_churn();
  void schedule_queries();
  void schedule_faults();
  void schedule_burst();
  void do_churn_event();
  void do_rackfail();
  void do_rootfail();
  void issue_query();
  void open_metrics();
  void write_metrics_snapshot(std::size_t index);
  void log_event(char kind, const std::string& detail);
  ChurnEpoch& epoch_now();
  /// Closes bucket `e` (metrics snapshot line `index`): population and
  /// the traffic since the previous bucket closed.
  void close_bucket(ChurnEpoch& e, std::size_t index);
  ChurnReport finalize();

  Network& net_;
  ChurnScenario sc_;
  Rng rng_;  ///< workload randomness, independent of the network's Rng

  std::vector<Guid> objects_;
  PopularityDist pop_;
  std::unique_ptr<HotspotManager> hotspot_;
  std::unordered_map<std::uint64_t, std::size_t> load_;  ///< resolver -> found
  std::vector<Location> free_locs_;
  std::vector<ChurnEpoch> epochs_;
  std::vector<std::string> log_;

  Trace maint_trace_;  ///< heartbeat + republish traffic
  Trace churn_trace_;  ///< join/leave protocol traffic
  std::size_t maint_msgs_seen_ = 0;
  std::size_t churn_msgs_seen_ = 0;

  double last_failure_ = -std::numeric_limits<double>::infinity();
  std::uint64_t fired_at_start_ = 0;
  bool ran_ = false;
  bool draining_ = false;   ///< horizon reached; stats go to drain_
  ChurnEpoch drain_;        ///< terminal bucket (see ChurnReport::drain)
  double churn_multiplier_ = 1.0;  ///< burst scaling of the churn rate
  std::ofstream metrics_file_;     ///< open iff sc_.metrics_out non-empty

  /// The workload and fault-script processes, engaged from the start of
  /// run() to the horizon: resetting them cancels whatever is pending, so
  /// nothing of the script fires during the drain.
  struct Processes {
    Timer churn, queries, checkpoint, flash, partition, heal, rackfail,
        rootfail, burst;
  };
  std::optional<Processes> procs_;
};

// ---------------------------------------------------------------------
// ThreadedChurnSoak: wall-clock churn on real threads
// ---------------------------------------------------------------------

/// Round-based churn soak on real threads: each round draws a join batch,
/// a fail batch and a leave batch serially (the determinism contract of
/// join_bulk / leave_bulk), then runs the three thread-parallel waves back
/// to back, each alone on the overlay.  After every round each tracked
/// object is located WITHOUT republishing; at the end the §4 structural
/// invariants are checked.
///
/// Runs on any store backend, with or without the locate cache: the
/// waves' threads touch neither.  Same seed + any worker count converges
/// to identical membership and occupancy fingerprints — the bench's
/// contract gate.
struct ThreadedChurnScenario {
  std::size_t rounds = 4;
  std::size_t joins_per_round = 8;
  std::size_t leaves_per_round = 4;   ///< voluntary §5.1, non-servers only
  std::size_t fails_per_round = 4;    ///< fail-stop §5.2, non-servers only
  std::size_t min_nodes = 24;         ///< no departures below this population
  std::size_t objects = 24;           ///< published up front, one server each
  std::size_t workers = 0;            ///< wave width; 0 = hardware concurrency
  std::uint64_t seed = 1;
};

struct ThreadedChurnReport {
  std::size_t rounds = 0;
  std::size_t joins = 0, leaves = 0, fails = 0;
  std::size_t queries = 0, found = 0;  ///< quiescent locates, no republish
  bool property1_ok = false;
  bool symmetry_ok = false;
  bool no_pins = false;
  double repair_seconds = 0.0;  ///< wall time inside fail/leave waves only
  std::uint64_t membership_fp = 0;  ///< FNV over sorted live id values
  std::uint64_t occupancy_fp = 0;   ///< fingerprint_occupancy at quiescence

  [[nodiscard]] double availability() const {
    return queries == 0 ? 1.0
                        : static_cast<double>(found) /
                              static_cast<double>(queries);
  }
  [[nodiscard]] double repairs_per_sec() const {
    return repair_seconds <= 0.0
               ? 0.0
               : static_cast<double>(leaves + fails) / repair_seconds;
  }
  [[nodiscard]] bool converged() const {
    return property1_ok && symmetry_ok && no_pins;
  }
};

class ThreadedChurnSoak {
 public:
  ThreadedChurnSoak(Network& net, ThreadedChurnScenario scenario);

  ThreadedChurnSoak(const ThreadedChurnSoak&) = delete;
  ThreadedChurnSoak& operator=(const ThreadedChurnSoak&) = delete;

  /// Runs every round and returns the report.  Single-shot.
  ThreadedChurnReport run();

 private:
  struct RoundPlan {
    std::vector<JoinRequest> joins;
    std::vector<NodeId> fails;
    std::vector<NodeId> leaves;
  };
  RoundPlan plan_round();
  Guid soak_guid();

  Network& net_;
  ThreadedChurnScenario sc_;
  Rng rng_;  ///< workload randomness, independent of the network's Rng

  std::vector<std::pair<Guid, NodeId>> tracked_;  ///< (object, its server)
  std::vector<Location> free_locs_;
  std::uint64_t guid_ctr_ = 0;
};

}  // namespace tap
