#include "benchmark/workloads.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "bench/bench_util.h"
#include "benchmark/spans.h"
#include "src/sim/churn_driver.h"
#include "src/sim/metrics.h"

namespace tapbench {
namespace {

using namespace tap;
using spans::Cat;
using spans::Scope;

enum class Kind { kMix, kChurn, kWaves };

struct Spec {
  std::string name;
  Kind kind;
  const char* space;
  std::size_t nodes;
  std::size_t objects;
  StoreBackend store;
  TransportKind transport;
  bool writes;             ///< mix: 1:1:2 publish/unpublish/locate, else reads
  std::size_t fail_every;  ///< mix: fail one non-server node every N ops
  /// Size at scale 1: ops (mix), horizon in time units (churn), rounds
  /// (waves).  Scale 1 measures about ten seconds on a 4-vCPU Xeon.
  double ref;
  std::size_t joins = 0, fails = 0, leaves = 0;  ///< waves: per round
};

const std::vector<Spec>& specs() {
  static const std::vector<Spec> all = {
      {"locate_read", Kind::kMix, "transit-stub", 8192, 16384,
       StoreBackend::kMemory, TransportKind::kDirect, false, 0, 1.3e6},
      {"write_mix", Kind::kMix, "ring", 4096, 8192, StoreBackend::kMemory,
       TransportKind::kLoopback, true, 0, 1.25e6},
      {"replicated_mix", Kind::kMix, "ring", 4096, 4096,
       StoreBackend::kReplicated, TransportKind::kDirect, true, 5000, 2e5},
      {"churn_event", Kind::kChurn, "ring", 4096, 4096, StoreBackend::kMemory,
       TransportKind::kDirect, false, 0, 100},
      {"membership_waves", Kind::kWaves, "ring", 4096, 1024,
       StoreBackend::kSharded, TransportKind::kDirect, false, 0, 32, 64, 32,
       32},
  };
  return all;
}

/// The same workload on a 1024-node overlay with a short op stream.
Spec mini_of(Spec s) {
  s.nodes = 1024;
  s.objects = std::min<std::size_t>(s.objects, 512);
  switch (s.kind) {
    case Kind::kMix:
      s.ref = 20000;
      if (s.fail_every != 0) s.fail_every = 500;
      break;
    case Kind::kChurn:
      s.ref = 4;
      break;
    case Kind::kWaves:
      s.ref = 6;
      s.joins = 16;
      s.fails = 8;
      s.leaves = 8;
      break;
  }
  return s;
}

/// Adds a found locate's hops and stretch to the quality counters.
void count_path(PhaseResult& r, const LocateResult& res, double direct) {
  r.hops += res.hops;
  ++r.hops_n;
  if (direct > 1e-9 && std::isfinite(direct)) {
    r.stretch_sum += res.latency / direct;
    ++r.stretch_n;
  }
}

void count_locate(PhaseResult& r, const LocateResult& res, double direct) {
  ++r.locates;
  if (!res.found) return;
  ++r.found;
  count_path(r, res, direct);
}

/// Wall ns of one benchmark call into the overlay, inside an op span.
template <typename F>
double timed_op(const char* span, F&& call) {
  const std::int64_t t0 = now_ns();
  {
    Scope s(span, Cat::kOp);
    call();
  }
  return static_cast<double>(now_ns() - t0);
}

class Base : public Workload {
 public:
  Base(Spec spec, RunConfig cfg) : spec_(std::move(spec)), cfg_(std::move(cfg)) {}

  [[nodiscard]] const std::string& name() const override { return spec_.name; }
  [[nodiscard]] Network& net() override { return *net_; }

 protected:
  [[nodiscard]] TapestryParams params() const {
    TapestryParams p = bench::default_params();
    p.store_backend = spec_.store;
    p.transport = spec_.transport;
    return p;
  }

  /// Drops the previous build.  Every setup() calls it before its timing
  /// starts: tearing down an overlay took a fifth of a write_mix setup.
  void release() {
    net_.reset();
    space_.reset();
  }

  /// A fresh space of `space_size` locations and a statically built
  /// overlay of spec_.nodes nodes on locations 0..nodes-1 (parallel
  /// builder, cfg_.workers threads).  The space is the same for every
  /// seed: drawn per seed, the transit-stub geometry alone moves
  /// locate_read's stretch_mean by a quarter between seeds.
  void build_overlay(std::size_t space_size, const TapestryParams& p) {
    Rng rng(kSpaceSeed);
    space_ = bench::make_space(spec_.space, space_size, rng);
    net_ = std::make_unique<Network>(*space_, p, cfg_.seed);
    std::vector<Location> locs(spec_.nodes);
    for (std::size_t i = 0; i < locs.size(); ++i) locs[i] = i;
    net_->insert_static_bulk(locs, cfg_.workers);
    net_->rebuild_static_tables(cfg_.workers);
  }

  void check_invariants(PhaseResult& r) {
    try {
      net_->check_property1();
    } catch (const CheckError& e) {
      r.fail(std::string("property 1: ") + e.what());
    }
    try {
      net_->check_backpointer_symmetry();
    } catch (const CheckError& e) {
      r.fail(std::string("backpointer symmetry: ") + e.what());
    }
  }

  static constexpr std::uint64_t kSpaceSeed = 0x5ace;

  Spec spec_;
  RunConfig cfg_;
  std::unique_ptr<MetricSpace> space_;
  std::unique_ptr<Network> net_;  // references *space_; declared after it
};

// ---------------------------------------------------------------------
// locate_read, write_mix, replicated_mix: a closed loop of sync calls.
// ---------------------------------------------------------------------
class MixWorkload final : public Base {
 public:
  using Base::Base;

  double setup() override {
    release();
    live_.clear();
    live_set_.clear();
    retired_.clear();
    load_.clear();
    next_guid_ = 0;
    op_index_ = 0;
    const std::int64_t t0 = now_ns();
    build_overlay(spec_.nodes, params());
    ids_ = net_->node_ids();
    rng_ = Rng(cfg_.seed ^ 0x0b5e55ull);
    std::vector<ObjectDirectory::PublishRequest> batch;
    for (std::size_t i = 0; i < spec_.objects; ++i) {
      const NodeId server = pick_node();
      batch.push_back({server, fresh_guid()});
      add_live(batch.back().guid, server);
    }
    if (net_->directory().replicator() != nullptr) {
      // publish_batch does not mirror records to quorum holders.
      for (const auto& b : batch) net_->publish(b.server, b.guid);
    } else {
      net_->publish_batch(batch, cfg_.workers);
    }
    return static_cast<double>(now_ns() - t0) / 1e9;
  }

  PhaseResult run(double scale, bool traced) override {
    const auto total = static_cast<std::uint64_t>(
        std::max(100.0, std::round(spec_.ref * scale)));
    PhaseResult r;
    for (std::uint64_t i = 0; i < total / 20; ++i) step(r, false);

    r.latency_ns.reserve(total);
    if (traced) spans::start();
    const TransportStats& ts = net_->transport().stats();
    const std::uint64_t msgs0 = ts.messages.load();
    const std::uint64_t bytes0 = ts.bytes.load();
    const std::uint64_t qr0 = metrics::replica_quorum_reads_total().value();
    const std::uint64_t rr0 = metrics::replica_read_repairs_total().value();
    const std::uint64_t re0 = metrics::replica_rereplications_total().value();
    const std::uint64_t allocs0 = thread_allocs();
    const std::int64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < total; ++i) step(r, true);
    r.seconds = static_cast<double>(now_ns() - t0) / 1e9;
    spans::stop();
    r.allocs = thread_allocs() - allocs0;
    r.ops = total;
    r.msgs = ts.messages.load() - msgs0;
    r.wire_bytes = ts.bytes.load() - bytes0;
    r.quorum_reads = metrics::replica_quorum_reads_total().value() - qr0;
    r.read_repairs = metrics::replica_read_repairs_total().value() - rr0;
    r.rereplications = metrics::replica_rereplications_total().value() - re0;
    return r;
  }

  void check(PhaseResult& r) override {
    for (const auto& [guid, server] : live_) {
      const auto servers = net_->servers_of(guid);
      if (std::find(servers.begin(), servers.end(), server) == servers.end())
        r.fail("servers_of(" + guid.to_string() + ") lacks its server");
    }
    for (const Guid& guid : retired_) {
      if (live_set_.count(guid.value()) != 0) continue;  // guid drawn again
      if (!net_->servers_of(guid).empty())
        r.fail("unpublished " + guid.to_string() + " still registered");
      if (net_->locate(pick_node(), guid).found)
        r.fail("unpublished " + guid.to_string() + " still located");
    }
    if (spec_.writes) check_invariants(r);
  }

  [[nodiscard]] std::vector<std::pair<Guid, NodeId>> objects() const override {
    return {live_.begin(), live_.end()};
  }

 private:
  static constexpr std::size_t kRetiredKept = 64;

  NodeId pick_node() { return ids_[rng_.next_u64(ids_.size())]; }

  /// bench_guid over a running counter, skipping values already live (the
  /// 32-bit id space makes collisions likely over a long stream).
  Guid fresh_guid() {
    for (;;) {
      const Guid g = bench::bench_guid(*net_, next_guid_++);
      if (live_set_.count(g.value()) == 0) return g;
    }
  }

  void add_live(const Guid& guid, const NodeId& server) {
    live_.emplace_back(guid, server);
    live_set_.insert(guid.value());
    ++load_[server.value()];
  }

  void step(PhaseResult& r, bool timed) {
    if (spec_.fail_every != 0 && ++op_index_ % spec_.fail_every == 0)
      fail_one(r, timed);
    const std::uint64_t dice = spec_.writes ? rng_.next_u64(4) : 3;
    if (live_.empty() || dice == 0)
      publish_one(r, timed);
    else if (dice == 1)
      unpublish_oldest(r, timed);
    else
      locate_one(r, timed);
  }

  void publish_one(PhaseResult& r, bool timed) {
    const NodeId server = pick_node();
    const Guid guid = fresh_guid();
    const double ns = timed_op("directory.publish",
                               [&] { net_->publish(server, guid); });
    if (timed) r.latency_ns.push_back(ns);
    add_live(guid, server);
  }

  void unpublish_oldest(PhaseResult& r, bool timed) {
    const auto [guid, server] = live_.front();
    live_.pop_front();
    live_set_.erase(guid.value());
    const double ns = timed_op("directory.unpublish",
                               [&] { net_->unpublish(server, guid); });
    if (timed) r.latency_ns.push_back(ns);
    if (--load_[server.value()] == 0) load_.erase(server.value());
    retired_.push_back(guid);
    if (retired_.size() > kRetiredKept) retired_.pop_front();
  }

  void locate_one(PhaseResult& r, bool timed) {
    const auto [guid, server] = live_[rng_.next_u64(live_.size())];
    const NodeId client = pick_node();
    LocateResult res;
    const double ns = timed_op("directory.locate",
                               [&] { res = net_->locate(client, guid); });
    if (!res.found)
      r.fail("locate of " + guid.to_string() + " from " + client.to_string() +
             " missed a live replica");
    else if (res.server != server)
      r.fail("locate of " + guid.to_string() + " resolved to a non-server");
    if (timed) {
      r.latency_ns.push_back(ns);
      count_locate(r, res, net_->distance(client, server));
    }
  }

  /// Fail-stops one random live node that serves no object.
  void fail_one(PhaseResult& r, bool timed) {
    for (int attempt = 0; attempt < 256; ++attempt) {
      const std::size_t i = rng_.next_u64(ids_.size());
      if (load_.count(ids_[i].value()) != 0) continue;
      const NodeId victim = ids_[i];
      ids_[i] = ids_.back();
      ids_.pop_back();
      (void)timed_op("maintenance.fail", [&] { net_->fail(victim); });
      if (timed) ++r.fails;
      return;
    }
  }

  std::vector<NodeId> ids_;  ///< live nodes
  Rng rng_;
  std::deque<std::pair<Guid, NodeId>> live_;  ///< oldest first
  std::unordered_set<std::uint64_t> live_set_;
  std::deque<Guid> retired_;  ///< most recently unpublished
  std::unordered_map<std::uint64_t, std::size_t> load_;  ///< server -> objects
  std::uint64_t next_guid_ = 0;
  std::uint64_t op_index_ = 0;
};

// ---------------------------------------------------------------------
// churn_event: ChurnDriver on the event engine.
// ---------------------------------------------------------------------
class ChurnWorkload final : public Base {
 public:
  using Base::Base;

  double setup() override {
    release();
    const std::int64_t t0 = now_ns();
    TapestryParams p = params();
    p.pointer_ttl = 8.0;
    p.locate_cache_size = 128;
    // Join pool: two joins per time unit over the longest horizon, twice.
    const auto headroom = static_cast<std::size_t>(
        4.0 * spec_.ref * std::max(1.0, cfg_.scale) + 64);
    build_overlay(spec_.nodes + headroom, p);
    return static_cast<double>(now_ns() - t0) / 1e9;
  }

  /// No warm-up: the driver is single-shot, and a second driver on the
  /// same overlay would publish and republish a second object set.
  PhaseResult run(double scale, bool traced) override {
    ChurnScenario sc;
    sc.horizon = std::max(1.0, spec_.ref * scale);
    sc.epoch = std::min(5.0, sc.horizon);
    sc.join_rate = 2.0;
    sc.leave_rate = 1.5;
    sc.fail_rate = 1.5;
    sc.min_nodes = spec_.nodes / 2;
    sc.query_rate = 400.0;
    sc.popularity = ChurnScenario::Popularity::kZipf;
    sc.zipf_s = 1.0;
    sc.objects = spec_.objects;
    sc.republish_interval = 4.0;
    sc.expiry_interval = 1.0;
    sc.heartbeat_interval = 4.0;
    sc.seed = cfg_.seed;

    PhaseResult r;
    const std::uint64_t queries0 = metrics::locate_total().value();
    const std::uint64_t found0 = metrics::locate_found_total().value();
    const TransportStats& ts = net_->transport().stats();
    const std::uint64_t msgs0 = ts.messages.load();
    const LocateCache::Stats cache0 = net_->directory().locate_cache().stats();
    const std::uint64_t allocs0 = thread_allocs();

    // The driver owns the event loop, so per-op latency is sampled from a
    // probe event: every kProbeEvery time units it records the wall time
    // per op completed since the previous sample.  The probe touches no
    // overlay state and draws no randomness.
    probe_end_ = net_->now() + sc.horizon;
    probes_ = 0;
    window_ops_ = done_ops();
    window_t_ = now_ns();
    schedule_probe(r);

    if (traced) spans::start();
    const std::int64_t t0 = now_ns();
    ChurnReport rep;
    {
      Scope s("churn_driver.run", Cat::kOp);
      ChurnDriver driver(*net_, sc);
      rep = driver.run();
    }
    r.seconds = static_cast<double>(now_ns() - t0) / 1e9;
    spans::stop();
    r.allocs = thread_allocs() - allocs0;
    r.ops = rep.queries + rep.joins + rep.leaves + rep.fails;
    r.msgs = ts.messages.load() - msgs0;
    r.events = rep.events_fired - probes_;
    r.locates = rep.queries;
    r.found = rep.found;
    r.fails = rep.fails;
    const LocateCache::Stats& cache = net_->directory().locate_cache().stats();
    r.cache_hits = cache.hits - cache0.hits;
    r.cache_misses = cache.misses - cache0.misses;
    r.cache_fallbacks = cache.fallbacks - cache0.fallbacks;

    // The report must agree with the locates the registry counted.
    const std::uint64_t queries = metrics::locate_total().value() - queries0;
    const std::uint64_t found = metrics::locate_found_total().value() - found0;
    if (queries != rep.queries)
      r.fail("ChurnReport queries " + std::to_string(rep.queries) +
             " != counted locates " + std::to_string(queries));
    if (found != rep.found)
      r.fail("ChurnReport found " + std::to_string(rep.found) +
             " != counted found locates " + std::to_string(found));
    sweep(r);
    return r;
  }

  void check(PhaseResult&) override {}

  [[nodiscard]] std::vector<std::pair<Guid, NodeId>> objects() const override {
    std::vector<std::pair<Guid, NodeId>> out;
    for (const auto& [guid, server] : net_->published())
      if (net_->contains(server)) out.emplace_back(guid, server);
    return out;
  }

 private:
  static constexpr double kProbeEvery = 0.05;
  static constexpr std::size_t kSweepLocates = 65536;

  /// Untimed: hops and stretch of uniform locates (object and client) on
  /// the overlay the churn left behind.  The driver's own queries are
  /// zipf(1.0): a tenth of them go to one object, so their stretch rests
  /// on a handful of objects' placement and moved 11% between seeds.
  void sweep(PhaseResult& r) {
    const auto objs = objects();
    const std::vector<NodeId> ids = net_->node_ids();
    if (objs.empty() || ids.empty()) return;
    Rng rng(cfg_.seed ^ 0x5eeeull);
    for (std::size_t i = 0; i < kSweepLocates; ++i) {
      const Guid& guid = objs[rng.next_u64(objs.size())].first;
      const NodeId client = ids[rng.next_u64(ids.size())];
      const LocateResult res = net_->locate(client, guid);
      if (res.found)
        count_path(r, res, net_->distance_to_nearest_replica(client, guid));
    }
  }

  static std::uint64_t done_ops() {
    return metrics::locate_total().value() +
           metrics::churn_joins_total().value() +
           metrics::churn_leaves_total().value() +
           metrics::churn_fails_total().value();
  }

  void schedule_probe(PhaseResult& r) {
    net_->events().schedule_in(kProbeEvery, [this, &r] {
      ++probes_;
      const std::uint64_t ops = done_ops();
      if (ops > window_ops_) {
        const std::int64_t t = now_ns();
        r.latency_ns.push_back(static_cast<double>(t - window_t_) /
                               static_cast<double>(ops - window_ops_));
        window_t_ = t;
        window_ops_ = ops;
      }
      if (net_->now() + kProbeEvery <= probe_end_) schedule_probe(r);
    });
  }

  double probe_end_ = 0.0;
  std::uint64_t probes_ = 0;
  std::uint64_t window_ops_ = 0;
  std::int64_t window_t_ = 0;
};

// ---------------------------------------------------------------------
// membership_waves: threaded join / fail-and-repair / leave waves.
// ---------------------------------------------------------------------
class WavesWorkload final : public Base {
 public:
  using Base::Base;

  double setup() override {
    release();
    const std::int64_t t0 = now_ns();
    const std::size_t rounds = rounds_for(cfg_.scale);
    const std::size_t space_size =
        spec_.nodes + spec_.joins * (rounds + warmup_rounds(rounds) + 1) + 64;
    build_overlay(space_size, params());
    rng_ = Rng(cfg_.seed ^ 0x3a7e5ull);
    free_locs_.clear();
    for (std::size_t loc = space_size; loc-- > spec_.nodes;)
      free_locs_.push_back(loc);
    const std::vector<NodeId> ids = net_->node_ids();
    tracked_.clear();
    servers_.clear();
    std::vector<ObjectDirectory::PublishRequest> batch;
    for (std::size_t i = 0; i < spec_.objects; ++i) {
      const NodeId server = ids[rng_.next_u64(ids.size())];
      batch.push_back({server, bench::bench_guid(*net_, i)});
      tracked_.emplace_back(batch.back().guid, server);
      servers_.insert(server.value());
    }
    net_->publish_batch(batch, cfg_.workers);
    return static_cast<double>(now_ns() - t0) / 1e9;
  }

  PhaseResult run(double scale, bool traced) override {
    const std::size_t rounds = rounds_for(scale);
    const std::size_t warm = warmup_rounds(rounds);
    PhaseResult r;
    double best[3] = {std::numeric_limits<double>::infinity(),
                      std::numeric_limits<double>::infinity(),
                      std::numeric_limits<double>::infinity()};
    for (std::size_t k = 0; k < warm + rounds; ++k) {
      if (traced && k == warm) spans::start();
      round(r, k >= warm, best);
    }
    spans::stop();
    r.join_ms_per_node = best[0];
    r.fail_ms_per_node = best[1];
    r.leave_ms_per_node = best[2];
    return r;
  }

  void check(PhaseResult& r) override { check_invariants(r); }

  [[nodiscard]] std::vector<std::pair<Guid, NodeId>> objects() const override {
    return tracked_;
  }

  [[nodiscard]] bool deterministic() const override { return false; }

 private:
  [[nodiscard]] std::size_t rounds_for(double scale) const {
    return static_cast<std::size_t>(
        std::max(1.0, std::round(spec_.ref * scale)));
  }
  static std::size_t warmup_rounds(std::size_t rounds) {
    return (rounds + 19) / 20;
  }

  /// Live non-servers not yet in `doomed`.
  std::vector<NodeId> draw_victims(const std::vector<NodeId>& ids,
                                   std::size_t want,
                                   std::unordered_set<std::uint64_t>& doomed) {
    std::vector<NodeId> out;
    for (std::size_t attempt = 0; out.size() < want && attempt < 64 * want;
         ++attempt) {
      const NodeId c = ids[rng_.next_u64(ids.size())];
      if (servers_.count(c.value()) != 0 || !doomed.insert(c.value()).second)
        continue;
      out.push_back(c);
    }
    return out;
  }

  void round(PhaseResult& r, bool timed, double best[3]) {
    const std::vector<NodeId> ids = net_->node_ids();
    std::vector<JoinRequest> joins;
    for (std::size_t i = 0; i < spec_.joins && !free_locs_.empty(); ++i) {
      JoinRequest j;
      j.loc = free_locs_.back();
      free_locs_.pop_back();
      joins.push_back(j);
    }
    std::unordered_set<std::uint64_t> doomed;
    const std::vector<NodeId> fails = draw_victims(ids, spec_.fails, doomed);
    const std::vector<NodeId> leaves = draw_victims(ids, spec_.leaves, doomed);
    std::vector<Location> vacated;
    for (const NodeId& v : leaves) vacated.push_back(net_->node(v).location());

    const TransportStats& ts = net_->transport().stats();
    const std::uint64_t allocs0 = thread_allocs();
    const std::uint64_t m0 = ts.messages.load();
    const double t_join = timed_op("maintenance.join_bulk", [&] {
      (void)net_->join_bulk(joins, cfg_.workers);
    });
    const std::uint64_t m1 = ts.messages.load();
    const double t_fail = timed_op("maintenance.fail_and_repair_bulk", [&] {
      net_->fail_and_repair_bulk(fails, cfg_.workers);
    });
    const double t_leave = timed_op("maintenance.leave_bulk", [&] {
      net_->leave_bulk(leaves, cfg_.workers);
    });
    const std::uint64_t m2 = ts.messages.load();
    free_locs_.insert(free_locs_.end(), vacated.begin(), vacated.end());

    if (timed) {
      r.allocs += thread_allocs() - allocs0;
      r.ops += joins.size() + fails.size() + leaves.size();
      r.seconds += (t_join + t_fail + t_leave) / 1e9;
      r.msgs += m2 - m0;
      r.join_msgs += m1 - m0;
      r.joins += joins.size();
      const double wave_ns[3] = {t_join, t_fail, t_leave};
      const std::size_t wave_ops[3] = {joins.size(), fails.size(),
                                       leaves.size()};
      for (int k = 0; k < 3; ++k) {
        if (wave_ops[k] == 0) continue;
        const double per_op = wave_ns[k] / static_cast<double>(wave_ops[k]);
        r.latency_ns.push_back(per_op);
        best[k] = std::min(best[k], per_op / 1e6);
      }
    }

    // Untimed: every tracked object from a random live client, first with
    // no republish (the availability the waves leave behind), then after
    // the §6.5 republish backstop, where every object must resolve.  A
    // join wave can leave an object whose root moved to a joining node
    // without its pointer until the republish.
    for (const bool republished : {false, true}) {
      if (republished) net_->republish_all();
      const std::vector<NodeId> live = net_->node_ids();
      for (const auto& [guid, server] : tracked_) {
        const NodeId client = live[rng_.next_u64(live.size())];
        const LocateResult res = net_->locate(client, guid);
        if (res.found && res.server != server)
          r.fail("after a wave, " + guid.to_string() + " resolved elsewhere");
        if (republished && !res.found)
          r.fail("after a wave and a republish, " + guid.to_string() +
                 " was not found");
        if (timed && !republished)
          count_locate(r, res, net_->distance(client, server));
      }
    }
  }

  Rng rng_;
  std::vector<Location> free_locs_;
  std::vector<std::pair<Guid, NodeId>> tracked_;
  std::unordered_set<std::uint64_t> servers_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const Spec& s : specs()) n.push_back(s.name);
    return n;
  }();
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const RunConfig& cfg, bool mini) {
  for (const Spec& s : specs()) {
    if (s.name != name) continue;
    const Spec spec = mini ? mini_of(s) : s;
    switch (spec.kind) {
      case Kind::kMix: return std::make_unique<MixWorkload>(spec, cfg);
      case Kind::kChurn: return std::make_unique<ChurnWorkload>(spec, cfg);
      case Kind::kWaves: return std::make_unique<WavesWorkload>(spec, cfg);
    }
  }
  return nullptr;
}

}  // namespace tapbench
