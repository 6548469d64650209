// Table-link coherence, fail-stop + lazy repair (§5.2), the heartbeat
// sweep, the thread-parallel repair waves, and the continual-optimization
// heuristics (§6.4).  Insertion lives in join.cc, voluntary departure in
// leave.cc, the static oracle builder in static_build.cc — all methods of
// MaintenanceEngine.
#include "src/tapestry/maintenance.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>

#include "src/sim/metrics.h"
#include "src/sim/thread_pool.h"

namespace tap {

MaintenanceEngine::MaintenanceEngine(NodeRegistry& registry, Router& router,
                                     ObjectDirectory& directory,
                                     const TapestryParams& params,
                                     EventQueue& events, Rng& rng)
    : reg_(registry), router_(router), dir_(directory), params_(params),
      events_(events), rng_(rng) {}

// ---------------------------------------------------------------------
// Table-link coherence
// ---------------------------------------------------------------------

bool link(NodeRegistry& reg, TapestryNode& owner, unsigned level,
          TapestryNode& nbr, const NodeLockTable* locks) {
  TAP_ASSERT(!(owner.id() == nbr.id()));
  TAP_ASSERT_MSG(owner.id().matches_prefix(nbr.id(), level),
                 "neighbor does not share the slot's prefix");
  const unsigned digit = nbr.id().digit(level);
  NeighborSet::ConsiderResult res;
  {
    NodeLockTable::Guard g(locks, owner.id(), nbr.id());
    res = owner.table().consider(level, digit, nbr.id(),
                                 reg.dist(owner, nbr));
    if (res.inserted) nbr.table().add_backpointer(level, owner.id());
  }
  if (res.evicted.has_value())
    sync_backpointer(reg, owner.id(), *res.evicted, level, locks);
  return res.inserted;
}

void unlink(NodeRegistry& reg, TapestryNode& owner, unsigned level,
            NodeId nbr, const NodeLockTable* locks) {
  if (nbr == owner.id()) return;  // never drop self-entries
  NodeLockTable::Guard g(locks, owner.id(), nbr);
  if (owner.table().remove(level, nbr.digit(level), nbr)) {
    if (TapestryNode* n = reg.find(nbr); n != nullptr)
      n->table().remove_backpointer(level, owner.id());
  }
}

bool add_to_table_if_closer(NodeRegistry& reg, TapestryNode& host,
                            TapestryNode& cand, const NodeLockTable* locks) {
  if (host.id() == cand.id()) return false;
  const unsigned gcp = host.id().common_prefix_len(cand.id());
  bool any = false;
  for (unsigned l = 0; l <= gcp && l < reg.params().id.num_digits; ++l)
    any = link(reg, host, l, cand, locks) || any;
  return any;
}

void sync_backpointer(NodeRegistry& reg, const NodeId& owner,
                      const NodeId& member, unsigned level,
                      const NodeLockTable* locks) {
  TapestryNode* o = reg.find(owner);
  TapestryNode* m = reg.find(member);
  if (o == nullptr || m == nullptr) return;
  NodeLockTable::Guard g(locks, owner, member);
  if (o->table().at(level, member.digit(level)).contains(member))
    m->table().add_backpointer(level, owner);
  else
    m->table().remove_backpointer(level, owner);
}

// ---------------------------------------------------------------------
// Fail-stop and lazy repair (§5.2)
// ---------------------------------------------------------------------

namespace {

bool slot_empty(const TapestryNode& n, unsigned level, unsigned digit,
                const NodeLockTable* locks) {
  NodeLockTable::Guard g(locks, n.id());
  return n.table().slot_empty(level, digit);
}

}  // namespace

void MaintenanceEngine::fail(NodeId id) {
  reg_.mark_dead(reg_.live(id));
  // The tombstone keeps its table, store and backpointers: last-hop chains
  // crossing the corpse stay traversable for DELETEPOINTERSBACKWARD, and
  // lazy repair discovers the corpse exactly where a live system would —
  // by failing to talk to it.  Locate-cache hints involving the corpse are
  // dropped eagerly; queries already jumping toward it fail holder
  // verification and fall back to the walk on their own.
  dir_.invalidate_node_cache(id);
}

void MaintenanceEngine::purge_dead_neighbor(TapestryNode& at, NodeId dead,
                                            Trace* trace) {
  purge_dead_neighbor(at, dead, trace, nullptr);
}

void MaintenanceEngine::purge_dead_neighbor(TapestryNode& at, NodeId dead,
                                            Trace* trace,
                                            const NodeLockTable* locks) {
  const auto before = dir_.snapshot_pointer_hops(at, locks);
  const unsigned gcp = at.id().common_prefix_len(dead);
  const unsigned digits = params_.id.num_digits;
  for (unsigned l = 0; l <= gcp && l < digits; ++l) {
    unlink(reg_, at, l, dead, locks);
    refill_slot(at, l, dead.digit(l), trace, locks);
    NodeLockTable::Guard g(locks, at.id());
    at.table().remove_backpointer(l, dead);
  }
  dir_.reroute_changed_pointers(at, before, trace, locks);
}

void MaintenanceEngine::refill_slot(TapestryNode& at, unsigned level,
                                    unsigned digit, Trace* trace,
                                    const NodeLockTable* locks) {
  // A hole appeared; Property 1 obliges us to find a replacement or
  // establish that none exists (§5.2).
  if (!slot_empty(at, level, digit, locks)) return;
  if (auto rep = find_replacement(at, level, digit, trace, locks);
      rep.has_value())
    link(reg_, at, level, reg_.live(*rep), locks);
}

std::optional<NodeId> MaintenanceEngine::find_replacement(
    TapestryNode& at, unsigned level, unsigned digit, Trace* trace,
    const NodeLockTable* locks) {
  // Simple local search first: ask the remaining level-`level` contacts
  // (row members and backpointer holders — all of whom share our length-
  // `level` prefix) for their own entry in that slot.
  std::optional<NodeId> best;
  double best_dist = 0.0;
  auto offer = [&](const NodeId& cand) {
    if (cand == at.id() || !reg_.is_live(cand)) return;
    const double d = reg_.dist(at, reg_.checked(cand));
    if (!best.has_value() || d < best_dist ||
        (d == best_dist && cand < *best)) {
      best = cand;
      best_dist = d;
    }
  };

  std::vector<NodeId> peers;
  {
    NodeLockTable::Guard g(locks, at.id());
    peers = at.table().row_members(level);
    for (const NodeId& b : at.table().backpointers(level)) peers.push_back(b);
  }
  std::sort(peers.begin(), peers.end());
  peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
  for (const NodeId& peer : peers) {
    if (peer == at.id() || !reg_.is_live(peer)) continue;
    TapestryNode& p = reg_.live(peer);
    reg_.acct(trace, at, p, 2);  // ask for its (level, digit) entries
    NodeLockTable::Guard g(locks, peer);
    for (const auto& e : p.table().at(level, digit).entries()) offer(e.id);
  }
  if (best.has_value()) return best;

  if (locks == nullptr) {
    // Fallback: acknowledged multicast over our length-`level` prefix,
    // collecting any node carrying `digit` at that position.  Expensive
    // but rare — it only runs when the local search came up empty.
    router_.multicast(
        at.id(), at.id(), level,
        [&](NodeId y) {
          if (reg_.checked(y).id().digit(level) == digit) offer(y);
        },
        trace, {});
    return best;
  }

  // Inside a wave the multicast (an unguarded recursive walk) is unusable.
  // Ids sharing our length-`level` prefix with `digit` next occupy one
  // contiguous value range, so the sorted live-id index enumerates exactly
  // the candidate set the multicast would have visited — and the
  // (distance, id) minimum is the same winner regardless of enumeration
  // order.
  const unsigned shift =
      (params_.id.num_digits - level - 1) * params_.id.digit_bits;
  const std::uint64_t lo =
      ((at.id().prefix_value(level) << params_.id.digit_bits) | digit)
      << shift;
  const std::uint64_t span = std::uint64_t{1} << shift;
  for (auto it = std::lower_bound(live_index_.begin(), live_index_.end(), lo);
       it != live_index_.end() && *it - lo < span; ++it) {
    const NodeId cand(params_.id, *it);
    if (cand == at.id()) continue;
    if (TapestryNode* c = reg_.find(cand); c != nullptr && c->alive) {
      reg_.acct(trace, at, *c, 1);  // the multicast-equivalent probe
      offer(cand);
    }
  }
  return best;
}

// ---------------------------------------------------------------------
// Heartbeat sweep (§5.2, §6.5)
// ---------------------------------------------------------------------

void MaintenanceEngine::heartbeat_sweep(Trace* trace) {
  metrics::heartbeat_sweeps_total().inc();
  sweep(trace, nullptr, 1);
}

std::optional<NodeId> MaintenanceEngine::first_corpse(
    TapestryNode& n, Trace* trace, const NodeLockTable* locks) {
  NodeLockTable::Guard g(locks, n.id());
  const unsigned digits = params_.id.num_digits;
  const unsigned radix = params_.id.radix();
  for (unsigned l = 0; l < digits; ++l) {
    for (unsigned j = 0; j < radix; ++j) {
      for (const auto& e : n.table().at(l, j).entries()) {
        if (e.id == n.id()) continue;
        const TapestryNode* other = reg_.find(e.id);
        TAP_ASSERT(other != nullptr);
        (void)transport_->deliver(make_message(MessageKind::kHeartbeatProbe,
                                               n.id(), e.id, e.id));
        reg_.acct(trace, n, *other, 1);  // heartbeat probe
        if (!other->alive) return e.id;
        Message ack =
            make_message(MessageKind::kHeartbeatAck, e.id, n.id(), n.id());
        ack.flag = true;  // alive
        (void)transport_->deliver(ack);
      }
    }
  }
  return std::nullopt;
}

bool MaintenanceEngine::for_each_live(
    const NodeLockTable* locks, std::size_t workers, Trace* trace,
    const std::function<bool(TapestryNode&, Trace*)>& body) {
  if (locks == nullptr) {
    bool any = false;
    for (const auto& n : reg_.nodes())
      if (n->alive && body(*n, trace)) any = true;
    return any;
  }
  const std::vector<TapestryNode*> nodes = reg_.nodes_snapshot();
  std::vector<Trace> traces(nodes.size());
  std::atomic<bool> any{false};
  parallel_for(
      nodes.size(),
      [&](std::size_t i) {
        if (nodes[i]->alive && body(*nodes[i], &traces[i]))
          any.store(true, std::memory_order_relaxed);
      },
      workers);
  if (trace != nullptr)
    for (const Trace& t : traces) trace->absorb(t);
  return any.load();
}

void MaintenanceEngine::sweep(Trace* trace, const NodeLockTable* locks,
                              std::size_t workers) {
  const unsigned digits = params_.id.num_digits;
  const unsigned radix = params_.id.radix();

  // Pass 1: heartbeat probes.  Each node pings its table members; a failed
  // ping triggers the same lazy repair a failed routing step would, and
  // the node rescans its rewritten table.  Replacements are always live,
  // so a node whose scan comes back clean holds no corpse.
  for_each_live(locks, workers, trace, [&](TapestryNode& n, Trace* t) {
    while (const auto dead = first_corpse(n, t, locks))
      purge_dead_neighbor(n, *dead, t, locks);
    return false;
  });

  // Pass 2..k: purge-time replacement searches can miss while other tables
  // are still dirty; retry emptied slots until nothing changes.  Serially,
  // a memo of prefixes established (this round) to have no live node
  // avoids re-multicasting for genuinely empty digit classes; a wave's
  // index probe needs none.  The search mutates no table or store, so the
  // pointer snapshot waits until a replacement turns up.
  std::unordered_set<std::uint64_t> known_empty;
  auto slot_key = [&](const TapestryNode& n, unsigned l, unsigned j) {
    return (n.id().prefix_value(l) << params_.id.digit_bits | j) |
           (static_cast<std::uint64_t>(l + 1) << 56);
  };
  for (int round = 0; round < 4; ++round) {
    const bool changed =
        for_each_live(locks, workers, trace, [&](TapestryNode& n, Trace* t) {
          bool filled = false;
          for (unsigned l = 0; l < digits; ++l) {
            for (unsigned j = 0; j < radix; ++j) {
              if (!slot_empty(n, l, j, locks)) continue;
              if (locks == nullptr && known_empty.count(slot_key(n, l, j)))
                continue;
              const auto rep = find_replacement(n, l, j, t, locks);
              if (!rep.has_value()) {
                if (locks == nullptr) known_empty.insert(slot_key(n, l, j));
                continue;
              }
              const auto before = dir_.snapshot_pointer_hops(n, locks);
              link(reg_, n, l, reg_.live(*rep), locks);
              dir_.reroute_changed_pointers(n, before, t, locks);
              filled = true;
            }
          }
          return filled;
        });
    if (!changed) break;
    known_empty.clear();  // new links may make old conclusions stale
  }
}

// ---------------------------------------------------------------------
// Thread-parallel repair waves (see maintenance.h for the contract)
// ---------------------------------------------------------------------

namespace {

// Wall-clock wave timing feeds a *volatile* metric: it is scrape-visible
// but excluded from deterministic snapshots (see metrics.h).
class WaveTimer {
 public:
  WaveTimer() : t0_(std::chrono::steady_clock::now()) {}
  ~WaveTimer() {
    const auto dt = std::chrono::steady_clock::now() - t0_;
    metrics::repair_wave_seconds().observe(
        std::chrono::duration<double>(dt).count());
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

void check_victims(const NodeRegistry& reg, const std::vector<NodeId>& victims,
                   const std::string& wave) {
  TAP_CHECK(!victims.empty(), "no " + wave + " victims");
  std::unordered_set<std::uint64_t> batch;
  for (const NodeId& v : victims) {
    TAP_CHECK(reg.is_live(v), wave + " victim must be a live node");
    TAP_CHECK(batch.insert(v.value()).second,
              "duplicate victim within the " + wave + " batch");
  }
  TAP_CHECK(victims.size() < reg.live_count(),
            "the " + wave + " wave would empty the network");
}

}  // namespace

void MaintenanceEngine::index_live_nodes() {
  live_index_.clear();
  for (TapestryNode* n : reg_.nodes_snapshot())
    if (n->alive) live_index_.push_back(n->id().value());
  std::sort(live_index_.begin(), live_index_.end());
}

void MaintenanceEngine::run_wave(
    const std::vector<NodeId>& victims, std::size_t workers, Trace* trace,
    const std::function<void(const NodeId&, Trace*)>& repair) {
  index_live_nodes();
  std::vector<Trace> traces(victims.size());
  parallel_for(
      victims.size(), [&](std::size_t i) { repair(victims[i], &traces[i]); },
      workers);
  // Merge per-victim traces in request order (deterministic counters up to
  // scheduling-dependent repair overlap; invariants never depend on them).
  if (trace != nullptr)
    for (const Trace& t : traces) trace->absorb(t);
  finish_wave(workers, trace);
}

void MaintenanceEngine::finish_wave(std::size_t workers, Trace* trace) {
  // Quiesce Property 1 across the whole mesh, then close the one §4.2
  // window threads open that serial execution cannot: records deposited on
  // a holder after that holder's snapshot was taken.
  sweep(trace, &reg_.node_locks(), workers);
  dir_.repair_pointer_chains(trace);
}

void MaintenanceEngine::leave_bulk(const std::vector<NodeId>& victims,
                                   std::size_t workers, Trace* trace) {
  WaveTimer timer;
  check_victims(reg_, victims, "leave");
  // Withdraw every victim's replicas while the mesh still routes through
  // them — the replica registry and the locate cache have no internal
  // synchronisation, so all of this stays on one thread.
  for (const NodeId& v : victims)
    for (const Guid& g : dir_.guids_served_by(v)) dir_.unpublish(v, g, trace);
  for (const NodeId& v : victims) fail(v);
  run_wave(victims, workers, trace, [&](const NodeId& v, Trace* t) {
    depart(reg_.checked(v), t, &reg_.node_locks());
  });
}

void MaintenanceEngine::fail_and_repair_bulk(const std::vector<NodeId>& victims,
                                             std::size_t workers,
                                             Trace* trace) {
  WaveTimer timer;
  check_victims(reg_, victims, "fail");
  // Tombstones keep their tables and stores, as in fail().
  for (const NodeId& v : victims) fail(v);
  run_wave(victims, workers, trace, [&](const NodeId& v, Trace* t) {
    const NodeLockTable* locks = &reg_.node_locks();
    std::vector<NodeId> holders;
    {
      NodeLockTable::Guard g(locks, v);
      holders = reg_.checked(v).table().all_backpointers();
    }
    for (const NodeId& h : holders)
      if (TapestryNode* b = reg_.find(h); b != nullptr && b->alive)
        purge_dead_neighbor(*b, v, t, locks);
  });
}

void MaintenanceEngine::heartbeat_sweep_bulk(std::size_t workers,
                                             Trace* trace) {
  WaveTimer timer;
  index_live_nodes();
  finish_wave(workers, trace);
}

void MaintenanceEngine::start_heartbeats(double every, Trace* trace) {
  TAP_CHECK(every > 0.0, "heartbeat interval must be positive");
  stop_heartbeats();
  schedule_heartbeat_tick(every, trace);
}

void MaintenanceEngine::stop_heartbeats() {
  if (heartbeat_event_.has_value()) {
    events_.cancel(*heartbeat_event_);
    heartbeat_event_.reset();
  }
}

void MaintenanceEngine::schedule_heartbeat_tick(double every, Trace* trace) {
  heartbeat_event_ = events_.schedule_in(every, [this, every, trace] {
    heartbeat_event_.reset();
    heartbeat_sweep(trace);
    schedule_heartbeat_tick(every, trace);
  });
}

// ---------------------------------------------------------------------
// Continual optimization (§6.4)
// ---------------------------------------------------------------------

void MaintenanceEngine::relocate(NodeId id, Location loc) {
  TapestryNode& n = reg_.live(id);
  TAP_CHECK(loc < reg_.space().size(), "location outside the metric space");
  n.set_location(loc);
  // Deliberately no table fix-up: stored distances are now stale, exactly
  // the drift the §6.4 heuristics are designed to absorb.
}

void MaintenanceEngine::optimize_primaries(NodeId id, Trace* trace) {
  TapestryNode& n = reg_.live(id);
  const auto before = dir_.snapshot_pointer_hops(n);
  const unsigned digits = params_.id.num_digits;
  for (unsigned l = 0; l < digits; ++l) {
    for (unsigned j = 0; j < params_.id.radix(); ++j) {
      // Re-measure every member and re-rank; consider() re-sorts in place.
      auto members = n.table().at(l, j).entries();  // copy: we mutate below
      for (const auto& e : members) {
        if (e.id == n.id()) continue;
        const TapestryNode* other = reg_.find(e.id);
        if (other == nullptr || !other->alive) {
          unlink(reg_, n, l, e.id);
          continue;
        }
        reg_.acct(trace, n, *other, 2);  // distance probe
        n.table().consider(l, j, e.id, reg_.dist(n, *other));
      }
    }
  }
  dir_.reroute_changed_pointers(n, before, trace);
}

void MaintenanceEngine::optimize_gossip(NodeId id, Trace* trace) {
  TapestryNode& n = reg_.live(id);
  const auto before = dir_.snapshot_pointer_hops(n);
  const unsigned digits = params_.id.num_digits;
  for (unsigned l = 0; l < digits; ++l) {
    // Ask each level-l neighbor for its level-l row; adopt closer members
    // (the "local sharing of information" heuristic).
    const auto peers = n.table().row_members(l);
    for (const NodeId& m : peers) {
      if (m == n.id() || !reg_.is_live(m)) continue;
      TapestryNode& member = reg_.live(m);
      reg_.acct(trace, n, member, 2);  // row exchange
      for (const NodeId& x : member.table().row_members(l)) {
        if (x == n.id() || !reg_.is_live(x)) continue;
        link(reg_, n, l, reg_.live(x));
      }
    }
  }
  dir_.reroute_changed_pointers(n, before, trace);
}

void MaintenanceEngine::rebuild_neighbor_table(NodeId id, Trace* trace) {
  TapestryNode& n = reg_.live(id);
  const auto before = dir_.snapshot_pointer_hops(n);
  // Deepest level at which anyone shares our prefix; the multicast over
  // that prefix regenerates the first list exactly as at insertion time.
  unsigned max_level = 0;
  for (unsigned l = 0; l < params_.id.num_digits; ++l)
    if (n.table().row_has_other(l)) max_level = l;
  std::vector<NodeId> list;
  router_.multicast(
      id, n.id(), max_level,
      [&](NodeId y) {
        if (!(y == id)) list.push_back(y);
      },
      trace, {id});
  acquire_neighbor_table(n, max_level, std::move(list), trace, nullptr);
  dir_.reroute_changed_pointers(n, before, trace);
}

}  // namespace tap
