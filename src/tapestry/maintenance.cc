// Table-link coherence, fail-stop + lazy repair (§5.2), the heartbeat
// sweep, the thread-parallel repair waves, and the continual-optimization
// heuristics (§6.4).  Insertion lives in join.cc, voluntary departure in
// leave.cc, the static oracle builder in static_build.cc — all methods of
// MaintenanceEngine.
#include "src/tapestry/maintenance.h"

#include <algorithm>
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
  RoutingTable::ConsiderResult res;
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

  // Then every live node that fits the slot: the registry's sorted live ids
  // hold them in one contiguous range, each probed once.  The search is
  // complete, so a miss establishes that no live node fits (Property 1).
  for (auto [it, end] = reg_.live_in_slot(at.id(), level, digit); it != end;
       ++it) {
    const NodeId cand(params_.id, *it);
    if (cand == at.id()) continue;
    reg_.acct(trace, at, reg_.live(cand), 1);  // the probe
    offer(cand);
  }
  return best;
}

// ---------------------------------------------------------------------
// Heartbeat sweep (§5.2, §6.5)
// ---------------------------------------------------------------------

void MaintenanceEngine::heartbeat_sweep(Trace* trace) {
  metrics::heartbeat_sweeps_total().inc();
  heartbeat_round(trace, nullptr, 1);
  fill_pass(trace, nullptr, 1);
}

std::optional<NodeId> MaintenanceEngine::first_corpse(
    TapestryNode& n, unsigned& level, std::vector<std::uint64_t>& confirmed,
    Trace* trace, const NodeLockTable* locks) {
  NodeLockTable::Guard g(locks, n.id());
  const unsigned digits = params_.id.num_digits;
  const unsigned radix = params_.id.radix();
  for (; level < digits; ++level) {
    for (unsigned j = 0; j < radix; ++j) {
      for (const auto& e : n.table().at(level, j).entries()) {
        if (e.id == n.id()) continue;
        // One heartbeat per member a sweep: a member can also sit in our
        // own-digit slot of each row above its own, and the scan after a
        // purge revisits the corpse's row.
        const auto pos =
            std::lower_bound(confirmed.begin(), confirmed.end(), e.id.value());
        if (pos != confirmed.end() && *pos == e.id.value()) continue;
        const TapestryNode* other = reg_.find(e.id);
        TAP_ASSERT(other != nullptr);
        if (!other->alive) {
          // No heartbeat came: probe the member, which never answers.
          (void)transport_->deliver(make_message(MessageKind::kHeartbeatProbe,
                                                 n.id(), e.id, e.id));
          reg_.acct(trace, n, *other, 1);  // unanswered probe
          return e.id;
        }
        // A live member pushes its heartbeat along each backpointer, and
        // backpointers mirror n's forward links: n hears from it once.
        Message alive =
            make_message(MessageKind::kHeartbeatAck, e.id, n.id(), n.id());
        alive.flag = true;
        (void)transport_->deliver(alive);
        reg_.acct(trace, *other, n, 1);  // pushed heartbeat
        confirmed.insert(pos, e.id.value());
      }
    }
  }
  return std::nullopt;
}

void MaintenanceEngine::for_each_live(
    const NodeLockTable* locks, std::size_t workers, Trace* trace,
    const std::function<void(TapestryNode&, Trace*)>& body) {
  if (locks == nullptr) {
    for (const auto& n : reg_.nodes())
      if (n->alive) body(*n, trace);
    return;
  }
  const std::vector<TapestryNode*> nodes = reg_.nodes_snapshot();
  std::vector<Trace> traces(nodes.size());
  parallel_for(
      nodes.size(),
      [&](std::size_t i) {
        if (nodes[i]->alive) body(*nodes[i], &traces[i]);
      },
      workers);
  if (trace != nullptr)
    for (const Trace& t : traces) trace->absorb(t);
}

void MaintenanceEngine::heartbeat_round(Trace* trace,
                                        const NodeLockTable* locks,
                                        std::size_t workers) {
  const unsigned digits = params_.id.num_digits;
  const unsigned radix = params_.id.radix();

  // Pass 0: heartbeats pushed to corpses.  A live node pushes along every
  // backpointer, and a corpse's tombstone table still lists the nodes it
  // linked to.  Each keeps its backpointer to the corpse, and keeps
  // pushing, until it purges the corpse from its own table, which it never
  // does if it does not list it.  The pushes go out at the sweep's instant,
  // before anyone notices the silence; nobody receives them, so only the
  // transport carries them and the Trace keeps the paper's one heartbeat
  // per live forward link.  Runs on this thread before any worker starts.
  for (const auto& d : reg_.nodes()) {
    if (d->alive) continue;
    const RoutingTable& t = d->table();
    for (unsigned l = 0; l < digits; ++l) {
      for (unsigned j = 0; j < radix; ++j) {
        for (const auto& e : t.at(l, j).entries()) {
          if (e.id == d->id()) continue;
          // A member sits in at most one slot of each row up to the row its
          // id first differs in; it pushes once, at the deepest row listing
          // it.
          const unsigned top = d->id().common_prefix_len(e.id);
          bool deeper = false;
          for (unsigned k = l + 1; k <= top && !deeper; ++k)
            deeper = t.at(k, e.id.digit(k)).contains(e.id);
          if (deeper) continue;
          const TapestryNode* x = reg_.find(e.id);
          if (x == nullptr || !x->alive ||
              !x->table().has_backpointer(l, d->id()))
            continue;
          Message alive =
              make_message(MessageKind::kHeartbeatAck, e.id, d->id(), d->id());
          alive.flag = true;
          (void)transport_->deliver(alive);
        }
      }
    }
  }

  // Pass 1: heartbeats.  Each node hears from its live table members and
  // probes only a member that stayed silent; the unanswered probe triggers
  // the same lazy repair a failed routing step would, and the scan resumes
  // at the corpse's row.  A purge only drops the corpse and links live
  // replacements, so the rows above stay corpse-free and a node whose scan
  // comes back clean holds no corpse.
  for_each_live(locks, workers, trace, [&](TapestryNode& n, Trace* t) {
    thread_local std::vector<std::uint64_t> confirmed;
    confirmed.clear();
    unsigned level = 0;
    while (const auto dead = first_corpse(n, level, confirmed, t, locks))
      purge_dead_neighbor(n, *dead, t, locks);
  });
}

void MaintenanceEngine::fill_pass(Trace* trace, const NodeLockTable* locks,
                                  std::size_t workers) {
  const unsigned digits = params_.id.num_digits;
  const unsigned radix = params_.id.radix();
  // Refills every empty slot some live id fits: holes no repair opened,
  // such as one left by a join made during a partition.  The search is
  // complete and a fill only adds a link, so one pass leaves no fillable
  // hole.  A slot no live id fits (Property 1's empty slots, mostly) is
  // skipped without a search, and the pointer snapshot waits until a
  // replacement turns up.
  for_each_live(locks, workers, trace, [&](TapestryNode& n, Trace* t) {
    for (unsigned l = 0; l < digits; ++l) {
      for (unsigned j = 0; j < radix; ++j) {
        if (!slot_empty(n, l, j, locks)) continue;
        const auto [first, last] = reg_.live_in_slot(n.id(), l, j);
        if (first == last) continue;
        const auto rep = find_replacement(n, l, j, t, locks);
        if (!rep.has_value()) continue;
        const auto before = dir_.snapshot_pointer_hops(n, locks);
        link(reg_, n, l, reg_.live(*rep), locks);
        dir_.reroute_changed_pointers(n, before, t, locks);
      }
      // Every deeper class lies inside n's own-digit class; once n is its
      // only live member, no hole below is fillable.
      const auto [mine, mine_end] =
          reg_.live_in_slot(n.id(), l, n.id().digit(l));
      if (mine_end - mine == 1) break;
    }
  });
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

// A wave on more than one worker writes node stores from several threads
// at once (in-wave reroutes), and only the sharded backend locks them.
// Zero workers (hardware concurrency) counts as more than one on every
// machine, so whether a call is refused never depends on the host.
void check_wave_store(const TapestryParams& params, std::size_t workers,
                      const std::string& wave) {
  TAP_CHECK(workers == 1 || params.store_backend == StoreBackend::kSharded,
            "a " + wave +
                " wave on more than one worker needs the sharded store "
                "backend");
}

}  // namespace

void MaintenanceEngine::run_wave(
    const std::vector<NodeId>& victims, std::size_t workers, Trace* trace,
    const std::function<void(const NodeId&, Trace*)>& repair) {
  std::vector<Trace> traces(victims.size());
  parallel_for(
      victims.size(), [&](std::size_t i) { repair(victims[i], &traces[i]); },
      workers);
  // Merge per-victim traces in request order (deterministic counters up to
  // scheduling-dependent repair overlap; invariants never depend on them).
  if (trace != nullptr)
    for (const Trace& t : traces) trace->absorb(t);
  // Close the one §4.2 window threads open that serial execution cannot:
  // records deposited on a holder after that holder's snapshot was taken.
  dir_.repair_pointer_chains(trace);
}

void MaintenanceEngine::leave_bulk(const std::vector<NodeId>& victims,
                                   std::size_t workers, Trace* trace) {
  check_wave_store(params_, workers, "leave");
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
  check_wave_store(params_, workers, "fail");
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
  check_wave_store(params_, workers, "heartbeat");
  WaveTimer timer;
  metrics::heartbeat_sweeps_total().inc();
  heartbeat_round(trace, &reg_.node_locks(), workers);
  fill_pass(trace, &reg_.node_locks(), workers);
  dir_.repair_pointer_chains(trace);
}

void MaintenanceEngine::start_heartbeats(double every, Trace* trace) {
  heartbeat_timer_.every(events_, every,
                         [this, trace] { heartbeat_sweep(trace); });
}

void MaintenanceEngine::stop_heartbeats() { heartbeat_timer_.stop(); }

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
  // A member that cannot be measured is a corpse: the §5.2 purge drops it
  // from every slot, refills the slots it empties and drops n's
  // backpointer to it, so the re-ranking below meets live members only.
  for (const NodeId& m : n.table().all_neighbors())
    if (!reg_.is_live(m)) purge_dead_neighbor(n, m, trace);
  const auto before = dir_.snapshot_pointer_hops(n);
  const unsigned digits = params_.id.num_digits;
  for (unsigned l = 0; l < digits; ++l) {
    for (unsigned j = 0; j < params_.id.radix(); ++j) {
      // Re-measure every member and re-rank; consider() re-sorts in place.
      const auto slot = n.table().at(l, j).entries();
      const std::vector<NeighborEntry> members(slot.begin(), slot.end());
      for (const auto& e : members) {  // a copy: the loop mutates the table
        if (e.id == n.id()) continue;
        const TapestryNode& other = reg_.live(e.id);
        reg_.acct(trace, n, other, 2);  // distance probe
        n.table().consider(l, j, e.id, reg_.dist(n, other));
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
