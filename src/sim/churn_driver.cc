#include "src/sim/churn_driver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "src/metric/transit_stub.h"
#include "src/sim/metrics.h"
#include "src/tapestry/fingerprint.h"

namespace tap {

namespace {

Guid scenario_guid(const TapestryParams& params, std::uint64_t seed,
                   std::uint64_t index) {
  const IdSpec spec = params.id;
  return Guid(spec, splitmix64(splitmix64(seed) ^ index) & spec.mask());
}

}  // namespace

// ---------------------------------------------------------------------
// PopularityDist
// ---------------------------------------------------------------------

PopularityDist PopularityDist::uniform(std::size_t n) {
  PopularityDist d;
  d.n_ = n;
  return d;  // no weight table: draw() stays the historical next_u64 call
}

PopularityDist PopularityDist::zipf(std::size_t n, double s) {
  PopularityDist d;
  d.n_ = n;
  d.weights_.reserve(n);
  for (std::size_t r = 0; r < n; ++r)
    d.weights_.push_back(std::pow(static_cast<double>(r + 1), -s));
  d.rebuild();
  return d;
}

void PopularityDist::rebuild() {
  cdf_.clear();
  cdf_.reserve(weights_.size());
  double acc = 0.0;
  for (const double w : weights_) {
    acc += w;
    cdf_.push_back(acc);
  }
}

void PopularityDist::boost(std::size_t index, double factor) {
  TAP_CHECK(index < n_, "boost: object index out of range");
  if (weights_.empty()) weights_.assign(n_, 1.0);
  weights_[index] *= factor;
  rebuild();
}

std::size_t PopularityDist::draw(Rng& rng) const {
  TAP_CHECK(n_ > 0, "draw from an empty distribution");
  if (cdf_.empty()) return rng.next_u64(n_);
  const double u = rng.next_double() * cdf_.back();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const auto idx = static_cast<std::size_t>(it - cdf_.begin());
  return idx < n_ ? idx : n_ - 1;
}

// ---------------------------------------------------------------------
// ChurnEpoch
// ---------------------------------------------------------------------

void ChurnEpoch::add(const ChurnEpoch& o) {
  joins += o.joins;
  leaves += o.leaves;
  fails += o.fails;
  queries += o.queries;
  found += o.found;
  queries_post_failure += o.queries_post_failure;
  found_post_failure += o.found_post_failure;
  queries_skipped += o.queries_skipped;
  stretch_sum += o.stretch_sum;
  stretch_n += o.stretch_n;
  maintenance_msgs += o.maintenance_msgs;
  churn_msgs += o.churn_msgs;
  hops.add_all(o.hops.samples());
}

// ---------------------------------------------------------------------
// ChurnDriver
// ---------------------------------------------------------------------

ChurnDriver::ChurnDriver(Network& net, ChurnScenario scenario)
    : net_(net), sc_(scenario), rng_(scenario.seed ^ 0xc4a2b5ull) {
  TAP_CHECK(sc_.horizon > 0.0, "scenario horizon must be positive");
  TAP_CHECK(sc_.epoch > 0.0, "scenario epoch must be positive");
  TAP_CHECK(sc_.checkpoint_interval <= 0.0 || !sc_.checkpoint_dir.empty(),
            "checkpoint_interval requires checkpoint_dir");
  TAP_CHECK(sc_.partition_heal <= 0.0 ||
                (sc_.partition_at > 0.0 &&
                 sc_.partition_heal > sc_.partition_at),
            "partition_heal requires an earlier partition_at");
  TAP_CHECK(sc_.burst_every <= 0.0 || sc_.burst_len <= 0.0 ||
                sc_.burst_factor > 0.0,
            "burst_factor must be positive");
  // Locations not occupied by any node ever registered (tombstones keep
  // theirs — a corpse's underlay address is not reusable) are the join
  // pool; voluntary leavers return theirs.
  std::vector<bool> used(net_.space().size(), false);
  for (const auto& n : net_.registry().nodes()) used[n->location()] = true;
  for (std::size_t loc = 0; loc < used.size(); ++loc)
    if (!used[loc]) free_locs_.push_back(loc);
}

void ChurnDriver::log_event(char kind, const std::string& detail) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%c t=%.6f ", kind, net_.now());
  log_.push_back(buf + detail);
}

ChurnEpoch& ChurnDriver::epoch_now() {
  // Past the horizon, in-flight operations completing during the drain are
  // bucketed separately: clamping them into the final epoch would skew its
  // availability/traffic statistics with events from outside its window.
  if (draining_) return drain_;
  // Relative to the run's start: the network's clock may have advanced
  // before the driver was handed the net (e.g. parallel-join growth).
  const double rel = net_.now() - epochs_.front().t0;
  auto idx = static_cast<std::size_t>(rel <= 0.0 ? 0.0 : rel / sc_.epoch);
  if (idx >= epochs_.size()) idx = epochs_.size() - 1;
  return epochs_[idx];
}

void ChurnDriver::publish_initial_objects() {
  const auto ids = net_.node_ids();
  TAP_CHECK(!ids.empty(), "cannot run a scenario on an empty network");
  for (std::size_t i = 0; i < sc_.objects; ++i) {
    const Guid guid = scenario_guid(net_.params(), sc_.seed, i);
    objects_.push_back(guid);
    for (unsigned r = 0; r < sc_.replicas; ++r) {
      const NodeId server = ids[rng_.next_u64(ids.size())];
      log_event('P', guid.to_string() + " @ " + server.to_string());
      net_.publish_async(server, guid);
    }
  }
}

void ChurnDriver::schedule_churn() {
  // The burst multiplier scales only the event rate; the join/leave/fail
  // mix in do_churn_event keeps drawing against the base rates.  A burst
  // transition calls this too: after() replaces the pending draw with one
  // at the new rate, sound because the exponential is memoryless.
  const double rate =
      (sc_.join_rate + sc_.leave_rate + sc_.fail_rate) * churn_multiplier_;
  if (rate <= 0.0) return;
  procs_->churn.after(net_.events(), rng_.exponential(rate), [this] {
    do_churn_event();
    schedule_churn();
  });
}

void ChurnDriver::do_churn_event() {
  const double total = sc_.join_rate + sc_.leave_rate + sc_.fail_rate;
  const double dice = rng_.next_double() * total;
  const std::vector<NodeId>& ids = net_.live_ids();  // read before churning

  if (dice < sc_.join_rate) {
    if (free_locs_.empty()) {
      log_event('j', "no-free-location");
      return;
    }
    const Location loc = free_locs_.back();
    free_locs_.pop_back();
    const NodeId id = net_.join(loc, std::nullopt, &churn_trace_);
    ++epoch_now().joins;
    metrics::churn_joins_total().inc();
    log_event('J', id.to_string());
  } else if (dice < sc_.join_rate + sc_.leave_rate) {
    if (net_.size() <= sc_.min_nodes || ids.empty()) {
      log_event('l', "population-floor");
      return;
    }
    const NodeId victim = ids[rng_.next_u64(ids.size())];
    if (!net_.directory().guids_served_by(victim).empty()) {
      // Voluntary departure of a storage server would take its replicas
      // with it (§5.1 withdraws them); keep the object population stable
      // and let only crashes destroy replicas.
      log_event('l', "victim-is-server " + victim.to_string());
      return;
    }
    free_locs_.push_back(net_.node(victim).location());
    net_.leave(victim, &churn_trace_);
    ++epoch_now().leaves;
    metrics::churn_leaves_total().inc();
    log_event('L', victim.to_string());
  } else {
    if (net_.size() <= sc_.min_nodes || ids.empty()) {
      log_event('f', "population-floor");
      return;
    }
    const NodeId victim = ids[rng_.next_u64(ids.size())];
    net_.fail(victim);
    last_failure_ = net_.now();
    ++epoch_now().fails;
    metrics::churn_fails_total().inc();
    log_event('F', victim.to_string());
  }
}

void ChurnDriver::schedule_faults() {
  EventQueue& q = net_.events();
  if (sc_.partition_at > 0.0) {
    procs_->partition.after(q, sc_.partition_at, [this] {
      // Side B: odd ranks of the sorted live id list — a deterministic
      // half-split independent of registration order.
      std::vector<NodeId> ids = net_.node_ids();
      std::sort(ids.begin(), ids.end());
      std::vector<NodeId> side_b;
      for (std::size_t i = 1; i < ids.size(); i += 2) side_b.push_back(ids[i]);
      net_.set_partition(side_b);
      log_event('X', "partition side_b=" + std::to_string(side_b.size()));
    });
  }
  if (sc_.partition_heal > 0.0) {
    procs_->heal.after(q, sc_.partition_heal, [this] {
      net_.heal_partition();
      log_event('H', "partition-heal");
    });
  }
  if (sc_.rackfail_at > 0.0) {
    // Fail fast on a mis-specified scenario instead of at the event.
    TAP_CHECK(dynamic_cast<const TransitStubMetric*>(&net_.space()) != nullptr,
              "rackfail requires a transit-stub metric space");
    procs_->rackfail.after(q, sc_.rackfail_at, [this] { do_rackfail(); });
  }
  if (sc_.rootfail_at > 0.0)
    procs_->rootfail.after(q, sc_.rootfail_at, [this] { do_rootfail(); });
}

void ChurnDriver::do_rootfail() {
  // Kill the current surrogate roots of the hottest published objects —
  // under a zipf workload object index = popularity rank, under uniform
  // the leading objects stand in for "hottest".  Each root is computed at
  // kill time (the oracle walk), so the victims adapt to whatever churn
  // already happened; duplicates (one node rooting several objects) and
  // roots that store the object themselves are skipped.
  std::size_t killed = 0;
  const std::size_t want = std::min(sc_.rootfail_count, objects_.size());
  for (std::size_t i = 0; i < want; ++i) {
    const Guid& object = objects_[i];
    if (net_.directory().servers_of(object).empty()) continue;
    const NodeId root = net_.surrogate_root(salted_guid(object, 0));
    if (!net_.registry().is_live(root)) continue;  // already dead: skip
    const auto servers = net_.directory().servers_of(object);
    if (std::find(servers.begin(), servers.end(), root) != servers.end()) {
      log_event('o', "root-is-server " + root.to_string());
      continue;
    }
    net_.fail(root);
    ++epoch_now().fails;
    metrics::churn_fails_total().inc();
    ++killed;
    log_event('O', "rootfail obj=" + object.to_string() + " root=" +
                       root.to_string());
  }
  if (killed > 0) last_failure_ = net_.now();
}

void ChurnDriver::do_rackfail() {
  const auto& ts = dynamic_cast<const TransitStubMetric&>(net_.space());
  // Group the live population by stub domain and kill the most populated
  // one outright (ties break toward the lowest stub id) — every node that
  // shares the victim rack's stub router fail-stops in the same instant.
  std::vector<std::vector<NodeId>> by_stub(ts.num_stubs());
  for (const NodeId id : net_.node_ids())
    by_stub[ts.stub_of(net_.node(id).location())].push_back(id);
  std::size_t victim_stub = 0;
  for (std::size_t s = 1; s < by_stub.size(); ++s)
    if (by_stub[s].size() > by_stub[victim_stub].size()) victim_stub = s;
  for (const NodeId v : by_stub[victim_stub]) {
    net_.fail(v);
    ++epoch_now().fails;
    metrics::churn_fails_total().inc();
  }
  last_failure_ = net_.now();
  log_event('K', "rackfail stub=" + std::to_string(victim_stub) + " killed=" +
                     std::to_string(by_stub[victim_stub].size()));
}

void ChurnDriver::schedule_burst() {
  if (sc_.burst_every <= 0.0 || sc_.burst_len <= 0.0) return;
  procs_->burst.after(net_.events(), sc_.burst_every, [this] {
    churn_multiplier_ = sc_.burst_factor;
    log_event('U', "burst-start x" + std::to_string(sc_.burst_factor));
    schedule_churn();
    procs_->burst.after(net_.events(), sc_.burst_len, [this] {
      churn_multiplier_ = 1.0;
      log_event('U', "burst-end");
      schedule_churn();
      schedule_burst();  // next burst burst_every after this one ends
    });
  });
}

void ChurnDriver::open_metrics() {
  if (sc_.metrics_out.empty()) return;
  // Per-run clean slate over a fixed metric set: values reset to zero and
  // every builtin family registers up front, so two same-seed runs emit
  // byte-identical streams regardless of what ran in this process before.
  metrics::reset_all();
  metrics::touch_builtin();
  metrics_file_.open(sc_.metrics_out, std::ios::trunc);
  TAP_CHECK(metrics_file_.is_open(),
            "cannot open metrics_out file: " + sc_.metrics_out);
}

void ChurnDriver::write_metrics_snapshot(std::size_t index) {
  if (!metrics_file_.is_open()) return;
  // Point-in-time gauges are sampled here rather than maintained on the
  // hot paths: population, queue depth, and the store totals summed over
  // the live membership.
  metrics::live_nodes().set(static_cast<double>(net_.size()));
  metrics::event_queue_depth().set(
      static_cast<double>(net_.events().pending()));
  std::uint64_t records = 0;
  std::uint64_t wal_bytes = 0;
  for (const auto& n : net_.registry().nodes()) {
    if (!n->alive) continue;
    const StoreStats st = n->store().stats();
    records += st.records;
    wal_bytes += st.wal_bytes;
  }
  metrics::store_records().set(static_cast<double>(records));
  metrics::store_wal_bytes().set(static_cast<double>(wal_bytes));
  char head[96];
  std::snprintf(head, sizeof head, "{\"t\":%.6f,\"epoch\":%zu,\"metrics\":",
                net_.now(), index);
  metrics_file_ << head << metrics::snapshot_json() << "}\n";
}

void ChurnDriver::schedule_queries() {
  if (sc_.query_rate <= 0.0) return;
  procs_->queries.after(net_.events(), rng_.exponential(sc_.query_rate),
                        [this] {
                          issue_query();
                          schedule_queries();
                        });
}

void ChurnDriver::issue_query() {
  if (objects_.empty() || net_.size() == 0) return;
  const Guid guid = objects_[pop_.draw(rng_)];
  if (net_.servers_of(guid).empty()) {
    // No live replica anywhere: nothing to find, nothing to count — the
    // paper's availability is over objects that still exist.
    ++epoch_now().queries_skipped;
    log_event('S', guid.to_string());
    return;
  }
  const std::vector<NodeId>& ids = net_.live_ids();
  const NodeId client = ids[rng_.next_u64(ids.size())];
  const double direct = net_.distance_to_nearest_replica(client, guid);
  const bool post_failure =
      net_.now() - last_failure_ < sc_.post_failure_window;
  log_event('Q', guid.to_string() + " from " + client.to_string());

  auto handle = [this, guid, client, direct,
                 post_failure](const LocateResult& r) {
    ChurnEpoch& e = epoch_now();
    ++e.queries;
    if (r.found) {
      ++e.found;
      e.hops.add(static_cast<double>(r.hops));
      ++load_[r.pointer_node.value()];  // the holder that resolved it
    }
    if (post_failure) {
      ++e.queries_post_failure;
      if (r.found) ++e.found_post_failure;
    }
    if (r.found && direct > 1e-9 && direct < 1e18) {
      e.stretch_sum += r.latency / direct;
      ++e.stretch_n;
    }
    log_event('R', std::string(r.found ? "hit" : "miss") + " hops=" +
                       std::to_string(r.hops));
    if (hotspot_ != nullptr) hotspot_->record_query(guid, client, r.found);
  };
  net_.locate_async(client, guid, handle);
}

void ChurnDriver::close_bucket(ChurnEpoch& e, std::size_t index) {
  e.live_nodes = net_.size();
  e.maintenance_msgs = maint_trace_.messages() - maint_msgs_seen_;
  maint_msgs_seen_ = maint_trace_.messages();
  e.churn_msgs = churn_trace_.messages() - churn_msgs_seen_;
  churn_msgs_seen_ = churn_trace_.messages();
  write_metrics_snapshot(index);
}

ChurnReport ChurnDriver::run() {
  TAP_CHECK(!ran_, "ChurnDriver instances are single-shot");
  ran_ = true;
  open_metrics();
  fired_at_start_ = net_.events().fired();

  const auto n_epochs = static_cast<std::size_t>(
      std::ceil(sc_.horizon / sc_.epoch - 1e-12));
  const double t0 = net_.now();
  epochs_.resize(n_epochs == 0 ? 1 : n_epochs);
  for (std::size_t i = 0; i < epochs_.size(); ++i) {
    epochs_[i].t0 = t0 + static_cast<double>(i) * sc_.epoch;
    epochs_[i].t1 = std::min(t0 + sc_.horizon,
                             t0 + static_cast<double>(i + 1) * sc_.epoch);
  }

  procs_.emplace();
  publish_initial_objects();
  pop_ = sc_.popularity == ChurnScenario::Popularity::kZipf
             ? PopularityDist::zipf(objects_.size(), sc_.zipf_s)
             : PopularityDist::uniform(objects_.size());
  if (sc_.flash_at > 0.0 && !objects_.empty()) {
    // One object's popularity spikes mid-run (offset from the run start).
    procs_->flash.after(net_.events(), sc_.flash_at, [this] {
      const std::size_t idx = sc_.flash_index % objects_.size();
      pop_.boost(idx, sc_.flash_factor);
      log_event('B', "flash-crowd " + objects_[idx].to_string() + " x" +
                         std::to_string(sc_.flash_factor));
    });
  }
  if (sc_.hotspot_replication)
    hotspot_ = std::make_unique<HotspotManager>(
        net_.registry(), net_.directory(), net_.events(), sc_.hotspot,
        /*synchronous=*/false, &maint_trace_);
  net_.start_soft_state(sc_.republish_interval, sc_.expiry_interval,
                        &maint_trace_);
  if (sc_.heartbeat_interval > 0.0)
    net_.start_heartbeats(sc_.heartbeat_interval, &maint_trace_);
  if (hotspot_ != nullptr) hotspot_->start();
  schedule_churn();
  schedule_queries();
  if (sc_.checkpoint_interval > 0.0) {
    procs_->checkpoint.every(net_.events(), sc_.checkpoint_interval, [this] {
      net_.checkpoint_stores(sc_.checkpoint_dir);
      log_event('C', "checkpoint " + sc_.checkpoint_dir);
    });
  }
  schedule_faults();
  schedule_burst();

  for (std::size_t i = 0; i < epochs_.size(); ++i) {
    net_.events().run_until(epochs_[i].t1);
    close_bucket(epochs_[i], i);
  }

  // Horizon reached: stop every recurring process, then drain the
  // operations still in flight.  Their completions land in the terminal
  // drain bucket, not in the last epoch.
  draining_ = true;
  drain_.t0 = epochs_.back().t1;
  procs_.reset();
  if (hotspot_ != nullptr) hotspot_->stop();
  net_.stop_soft_state();
  net_.stop_heartbeats();
  net_.events().run();
  TAP_CHECK(net_.async_in_flight() == 0,
            "operations still in flight after drain");
  // A final checkpoint after the drain, so kill-and-resume experiments can
  // restore the run's end state, not just the last periodic snapshot.
  if (sc_.checkpoint_interval > 0.0) {
    net_.checkpoint_stores(sc_.checkpoint_dir);
    log_event('C', "checkpoint-final " + sc_.checkpoint_dir);
  }
  // Traffic from drained operations lands in the terminal drain bucket —
  // the last epoch keeps only what happened inside its own window.  Its
  // metrics snapshot is line epochs_.size(), past the last epoch's.
  drain_.t1 = net_.now();
  close_bucket(drain_, epochs_.size());
  if (metrics_file_.is_open()) metrics_file_.close();
  return finalize();
}

ChurnReport ChurnDriver::finalize() {
  ChurnReport r;
  r.epochs = epochs_;
  r.drain = drain_;
  for (const ChurnEpoch& e : epochs_) r.add(e);
  r.add(drain_);  // drained completions still count toward the totals
  r.t1 = drain_.t1;
  r.live_nodes = drain_.live_nodes;
  r.events_fired = net_.events().fired() - fired_at_start_;
  for (const auto& [node, n] : load_) r.load_max = std::max(r.load_max, n);
  r.load_nodes = load_.size();
  const LocateCache::Stats& cs = net_.directory().locate_cache().stats();
  r.cache_hits = cs.hits;
  r.cache_misses = cs.misses;
  r.cache_fallbacks = cs.fallbacks;
  if (hotspot_ != nullptr) {
    const HotspotManager::Stats hs = hotspot_->stats();
    r.hotspot_promotions = hs.promotions;
    r.hotspot_demotions = hs.demotions;
  }
  return r;
}

// ---------------------------------------------------------------------
// ThreadedChurnSoak
// ---------------------------------------------------------------------

ThreadedChurnSoak::ThreadedChurnSoak(Network& net, ThreadedChurnScenario sc)
    : net_(net), sc_(sc), rng_(sc.seed ^ 0x50a4c7ull) {
  TAP_CHECK(sc_.min_nodes >= 2, "min_nodes must keep at least two nodes");
  TAP_CHECK(net_.size() >= sc_.min_nodes,
            "initial population is already below min_nodes");
  TAP_CHECK(sc_.rounds > 0, "a soak needs at least one round");
  TAP_CHECK(sc_.objects > 0, "a soak needs a tracked object population");
  // Join pool: locations never occupied (tombstones keep theirs, exactly
  // as in ChurnDriver); voluntary leavers return theirs each round.
  std::vector<bool> used(net_.space().size(), false);
  for (const auto& n : net_.registry().nodes()) used[n->location()] = true;
  for (std::size_t loc = 0; loc < used.size(); ++loc)
    if (!used[loc]) free_locs_.push_back(loc);
}

Guid ThreadedChurnSoak::soak_guid() {
  return scenario_guid(net_.params(), sc_.seed ^ 0x9e11ull, ++guid_ctr_);
}

ThreadedChurnSoak::RoundPlan ThreadedChurnSoak::plan_round() {
  RoundPlan plan;
  // Ascending ids: join waves register nodes in thread-scheduling order,
  // so the registry's order must not steer the draws below.
  std::vector<NodeId> ids = net_.node_ids();
  std::sort(ids.begin(), ids.end());

  // Joins: vacated or never-used locations, fresh random ids (drawn inside
  // join_bulk's serial preamble — part of its determinism contract).
  const std::size_t joins = std::min(sc_.joins_per_round, free_locs_.size());
  for (std::size_t i = 0; i < joins; ++i) {
    JoinRequest r;
    r.loc = free_locs_.back();
    free_locs_.pop_back();
    plan.joins.push_back(r);
  }

  // Victims: live non-servers, fail and leave sets disjoint.  Servers are
  // exempt because the round's availability gate is "every tracked object
  // locatable with NO republish" — that needs the server set stable while
  // the waves run (a leaving server's preamble would unpublish it).
  std::unordered_set<std::uint64_t> servers;
  for (const auto& entry : tracked_)
    if (net_.contains(entry.second)) servers.insert(entry.second.value());
  std::unordered_set<std::uint64_t> doomed;
  std::size_t live_after = ids.size() + plan.joins.size();
  auto draw = [&](std::size_t want, std::vector<NodeId>* out) {
    std::size_t attempts = 0;
    while (out->size() < want && attempts < 8 * ids.size() + 64) {
      ++attempts;
      if (live_after <= sc_.min_nodes) return;
      const NodeId c = ids[rng_.next_u64(ids.size())];
      if (servers.count(c.value()) != 0 || doomed.count(c.value()) != 0)
        continue;
      doomed.insert(c.value());
      out->push_back(c);
      --live_after;
    }
  };
  draw(sc_.fails_per_round, &plan.fails);
  draw(sc_.leaves_per_round, &plan.leaves);
  return plan;
}

ThreadedChurnReport ThreadedChurnSoak::run() {
  ThreadedChurnReport rep;

  // Initial object population, published serially at quiescence.
  {
    const std::vector<NodeId> ids = net_.node_ids();
    for (std::size_t i = 0; i < sc_.objects; ++i) {
      const Guid g = soak_guid();
      const NodeId server = ids[rng_.next_u64(ids.size())];
      net_.publish(server, g);
      tracked_.emplace_back(g, server);
    }
  }

  for (std::size_t round = 0; round < sc_.rounds; ++round) {
    RoundPlan plan = plan_round();

    // Voluntary leavers vacate their underlay addresses; corpses keep
    // theirs (tombstones, matching ChurnDriver).
    for (const NodeId v : plan.leaves)
      free_locs_.push_back(net_.node(v).location());

    // The waves: join, then fail-stop repair, then voluntary leave — all
    // on `workers` real threads, one wave at a time.
    if (!plan.joins.empty()) (void)net_.join_bulk(plan.joins, sc_.workers);
    const auto t0 = std::chrono::steady_clock::now();
    if (!plan.fails.empty())
      net_.fail_and_repair_bulk(plan.fails, sc_.workers);
    if (!plan.leaves.empty()) net_.leave_bulk(plan.leaves, sc_.workers);
    rep.repair_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    // Quiescent availability sweep: every tracked object (servers are all
    // still live by construction) from a random live client, no republish.
    std::vector<NodeId> ids = net_.node_ids();
    std::sort(ids.begin(), ids.end());
    for (const auto& entry : tracked_) {
      if (!net_.contains(entry.second)) continue;
      ++rep.queries;
      if (net_.locate(ids[rng_.next_u64(ids.size())], entry.first).found)
        ++rep.found;
    }

    rep.joins += plan.joins.size();
    rep.fails += plan.fails.size();
    rep.leaves += plan.leaves.size();
    ++rep.rounds;
  }

  // Terminal invariants and fingerprints — the cross-worker-count
  // convergence gates bench_churn_threaded compares.
  try {
    net_.check_property1();
    rep.property1_ok = true;
  } catch (const CheckError&) {
  }
  try {
    net_.check_backpointer_symmetry();
    rep.symmetry_ok = true;
  } catch (const CheckError&) {
  }
  rep.no_pins = true;
  for (const auto& n : net_.registry().nodes()) {
    if (!n->alive) continue;
    const RoutingTable& t = n->table();
    for (unsigned l = 0; l < t.levels() && rep.no_pins; ++l)
      for (unsigned j = 0; j < t.radix(); ++j)
        if (!t.at(l, j).pinned_members().empty()) {
          rep.no_pins = false;
          break;
        }
  }
  {
    std::vector<std::uint64_t> vals;
    for (const NodeId id : net_.node_ids()) vals.push_back(id.value());
    std::sort(vals.begin(), vals.end());
    detail::Fnv1a h;
    for (const std::uint64_t v : vals) h.mix(v);
    rep.membership_fp = h.value();
  }
  rep.occupancy_fp = fingerprint_occupancy(net_);
  return rep;
}

}  // namespace tap
