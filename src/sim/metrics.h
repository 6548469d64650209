// Process-wide metrics registry: counters, gauges and fixed-bucket
// histograms behind lock-free hot paths.
//
// The simulator's per-epoch CSV answers "how did the run go"; this
// registry answers "what is the overlay doing right now" — routing
// message volume, locate outcomes and hop distributions, repair-wave
// activity, store occupancy, event-queue depth — the Prometheus-style
// observability ROADMAP's production-observability item asks for.
//
// Design rules:
//
//   * Hot-path writes are single relaxed atomic RMWs.  Instrumented
//     call sites cache a reference (`static Counter& c = ...`), so the
//     registry map is only consulted once per site per process.
//   * Registration is centralized: every metric the simulator exports
//     is created by a named accessor in metrics.cc (the well-known
//     metrics section below).  tools/check_metrics_doc.py scans that
//     one file and cross-checks docs/metrics.md, so an undocumented
//     metric fails CI.
//   * Snapshots must be replay-deterministic.  Metrics whose values
//     depend on wall-clock time or thread scheduling (wave durations,
//     lock contention) are registered `volatile` and excluded from
//     snapshot_json(), which feeds --metrics-out JSONL; the Prometheus
//     text exposition (a live scrape, no determinism contract) always
//     includes them.
//   * Values reset, identities persist: reset_values() zeroes every
//     metric but never invalidates a reference handed out earlier, so
//     one process can run many deterministic scenarios back to back.
//
// The registry is process-global on purpose — overlays, drivers and
// benches all write into one namespace, exactly like a real process
// exporting one scrape page.  Drivers that need a clean slate call
// reset_values() at run start.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace tap::metrics {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Global on/off switch for hot-path recording (relaxed read per write).
/// Exists so bench_churn can measure instrumentation overhead by running
/// the identical workload with recording suppressed.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on) noexcept;

/// Monotonic counter.  inc() is one relaxed fetch_add.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    if (!enabled()) return;
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-writer-wins instantaneous value (sampled, not accumulated).
class Gauge {
 public:
  void set(double v) noexcept {
    if (!enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void add(double d) noexcept;
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram with Prometheus `le` semantics: observation x
/// lands in the first bucket with x <= bound; the implicit last bucket
/// is +Inf.  Bounds are fixed at registration — no resizing, so
/// observe() is a bucket scan plus two relaxed RMWs.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double x) noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// Raw (non-cumulative) count of bucket i; i == bounds().size() is the
  /// +Inf overflow bucket.
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds+1 slots
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// One label pair; series are keyed by name + sorted label set.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class Kind { kCounter, kGauge, kHistogram };

/// Named + labeled metric store.  Lookup/registration takes a mutex (it
/// is called once per call site, not per event); the returned references
/// are stable for the registry's lifetime.
class Registry {
 public:
  Counter& counter(const std::string& name, const std::string& help,
                   const Labels& labels = {}, bool volatile_metric = false);
  Gauge& gauge(const std::string& name, const std::string& help,
               const Labels& labels = {}, bool volatile_metric = false);
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds, const Labels& labels = {},
                       bool volatile_metric = false);

  /// Zeroes every metric's value; identities and references survive.
  void reset_values();

  /// One-line JSON object mapping "name{labels}" -> value, keys sorted.
  /// Counters/gauges map to numbers; histograms map to
  /// {"buckets":[...],"sum":s,"count":n} with the +Inf bucket last.
  /// Volatile (wall-clock / scheduling dependent) metrics are excluded
  /// unless `include_volatile` — the seed-determinism contract of
  /// --metrics-out.
  [[nodiscard]] std::string snapshot_json(bool include_volatile = false) const;

  /// Prometheus text exposition (format 0.0.4): HELP/TYPE headers, one
  /// series per line, histograms expanded to cumulative _bucket{le=...}
  /// plus _sum/_count.  Includes volatile metrics — a live scrape has no
  /// determinism contract.
  [[nodiscard]] std::string prometheus_text() const;

  /// Distinct family names, sorted (docs tooling and tests).
  [[nodiscard]] std::vector<std::string> family_names() const;

 private:
  struct Entry {
    std::string name;
    std::string help;
    std::string label_str;  // rendered `k="v",k2="v2"`, sorted by key
    Kind kind = Kind::kCounter;
    bool volatile_metric = false;
    std::unique_ptr<Counter> c;
    std::unique_ptr<Gauge> g;
    std::unique_ptr<Histogram> h;
  };

  Entry& find_or_create(const std::string& name, const std::string& help,
                        const Labels& labels, Kind kind, bool volatile_metric);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  // key = name + "{" + labels + "}"
};

/// The process-wide registry every accessor below registers into.
[[nodiscard]] Registry& registry();

/// Convenience passthroughs on the global registry.
void reset_all();
[[nodiscard]] std::string snapshot_json(bool include_volatile = false);
[[nodiscard]] std::string prometheus_text();

// --- well-known metrics -------------------------------------------------
// Every metric the simulator exports, one accessor each (all defined in
// metrics.cc — the single file check_metrics_doc.py scans).  First call
// registers; later calls return the same object.

Counter& messages_total();            ///< inter-node messages (send + acct)
Counter& locate_total();              ///< locate operations completed
Counter& locate_found_total();        ///< locates that found a replica
Counter& publish_total();             ///< publish operations started
Counter& unpublish_total();           ///< unpublish operations started
Histogram& locate_hops();             ///< per-locate overlay hop count
Counter& cache_hits_total();          ///< locate-cache hits served
Counter& cache_fallbacks_total();     ///< cache hits failing verification
Counter& hotspot_promotions_total();  ///< extra replicas published
Counter& hotspot_demotions_total();   ///< extra replicas withdrawn
Counter& churn_joins_total();         ///< §4.4 dynamic joins completed
Counter& churn_leaves_total();        ///< §5.1 voluntary leaves completed
Counter& churn_fails_total();         ///< fail-stop deaths processed
Counter& heartbeat_sweeps_total();    ///< §6.5 heartbeat sweeps run
Counter& partition_transitions_total();  ///< partition set/heal events
Counter& replica_writes_total();      ///< quorum mirror writes acknowledged
Counter& replica_quorum_reads_total();  ///< R-of-N quorum reads at roots
Counter& replica_read_repairs_total();  ///< stale/missing replicas repaired
Counter& replica_rereplications_total();  ///< holder deaths re-replicated
Counter& transport_messages_total();  ///< messages through the wire seam
Counter& transport_bytes_total();     ///< datagram bytes encoded (loopback)
Gauge& live_nodes();                  ///< live overlay members (sampled)
Gauge& event_queue_depth();           ///< pending event actions (sampled)
Gauge& store_records();               ///< pointer records, all nodes (sampled)
Gauge& store_wal_bytes();             ///< WAL bytes appended, all nodes (sampled)
Histogram& repair_wave_seconds();     ///< volatile: repair wave wall time
Counter& stripe_lock_contention_total();  ///< volatile: contended stripe locks

/// Registers every well-known metric above.  Drivers that export
/// deterministic snapshots call this first so the exported metric set
/// never depends on which code paths happened to run earlier in the
/// process.
void touch_builtin();

// --- scrape endpoint ----------------------------------------------------

/// Minimal plain-HTTP exposition server: every request to any path gets
/// a 200 with the current prometheus_text().  Binds 127.0.0.1:`port`
/// (port 0 picks an ephemeral port — tests); serves on a background
/// thread until stop()/destruction.
class ScrapeServer {
 public:
  explicit ScrapeServer(int port);
  ~ScrapeServer();

  ScrapeServer(const ScrapeServer&) = delete;
  ScrapeServer& operator=(const ScrapeServer&) = delete;

  /// Bound port (resolves port 0), or 0 if the listener failed to start.
  [[nodiscard]] int port() const noexcept { return bound_port_; }
  [[nodiscard]] bool running() const noexcept { return listen_fd_ >= 0; }
  void stop();

 private:
  void serve();

  int listen_fd_ = -1;
  int bound_port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace tap::metrics
