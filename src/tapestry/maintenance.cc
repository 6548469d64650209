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

namespace {

/// True when a live node lists `c` or keeps a backpointer to it.
bool live_linked(const NodeRegistry& reg, const TapestryNode& c,
                 const NodeLockTable* locks) {
  const RoutingTable& t = c.table();
  {
    NodeLockTable::Guard g(locks, c.id());
    for (unsigned l = 0; l < t.levels(); ++l)
      for (const NodeId& holder : t.backpointers(l))
        if (reg.is_live(holder)) return true;
  }
  // A member's backpointer is read under its own stripe, so c's entries
  // are re-read one at a time: a thread holds one Guard at a time.
  for (unsigned l = 0; l < t.levels(); ++l) {
    for (unsigned j = 0; j < t.radix(); ++j) {
      for (std::size_t k = 0;; ++k) {
        NodeId m;
        {
          NodeLockTable::Guard g(locks, c.id());
          const auto members = t.at(l, j).entries();
          if (k >= members.size()) break;
          m = members[k].id;
        }
        const TapestryNode* n = reg.find(m);
        if (m == c.id() || n == nullptr || !n->alive) continue;
        NodeLockTable::Guard g(locks, m);
        if (n->table().has_backpointer(l, c.id())) return true;
      }
    }
  }
  return false;
}

}  // namespace

void release_if_unlinked(const NodeRegistry& reg, TapestryNode& c,
                         const NodeLockTable* locks) {
  if (c.alive || live_linked(reg, c, locks)) return;
  NodeLockTable::Guard g(locks, c.id());
  c.table().release();
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

/// The first dead member of `n`'s row `level`, in slot order.
std::optional<NodeId> dead_member(const NodeRegistry& reg,
                                  const TapestryNode& n, unsigned level) {
  const std::uint64_t row = n.table().row_mask(level);
  for (unsigned j = occ::next(row, 0); j != occ::kNone;
       j = occ::next(row, j + 1))
    for (const auto& e : n.table().at(level, j).entries())
      if (!reg.is_live(e.id)) return e.id;
  return std::nullopt;
}

/// True when `t` lists `id` in some slot.  A member sits only in slot
/// (l, id.digit(l)) of a level l up to the two ids' common prefix.
bool lists(const RoutingTable& t, const NodeId& id) {
  const unsigned shared = t.self().common_prefix_len(id);
  for (unsigned l = 0; l <= shared && l < t.levels(); ++l)
    if (t.at(l, id.digit(l)).contains(id)) return true;
  return false;
}

}  // namespace

void MaintenanceEngine::fail(NodeId id) {
  TapestryNode& v = reg_.live(id);
  reg_.mark_dead(v);
  // The tombstone keeps its store for good: last-hop chains crossing the
  // corpse stay traversable for DELETEPOINTERSBACKWARD.  It keeps its
  // table while a live node links with it, so lazy repair discovers the
  // corpse exactly where a live system would — by failing to talk to it —
  // and its live holders' purges and its live members' heartbeat pushes
  // cut those links one by one (release_if_unlinked).  Its own links no
  // longer count as live, so each corpse it lists or that lists it may
  // have just lost its last.  Those releases take the corpse's stripe.
  // No wave thread runs while fail() does (a wave's preamble calls it
  // before its threads start), so the lock is uncontended; it stays so
  // that a release never frees a table another thread may be reading,
  // wherever fail() is called from.  Locate-cache hints naming the corpse
  // die when next read; queries already jumping toward it fail holder
  // verification and fall back to the walk on their own.
  const NodeLockTable* locks = &reg_.node_locks();
  const RoutingTable& t = v.table();
  for (unsigned l = 0; l < t.levels(); ++l) {
    for (const NodeId& holder : t.backpointers(l))
      release_if_unlinked(reg_, reg_.checked(holder), locks);
    const std::uint64_t row = t.row_mask(l);
    for (unsigned j = occ::next(row, 0); j != occ::kNone;
         j = occ::next(row, j + 1))
      for (const auto& e : t.at(l, j).entries())
        if (!(e.id == id)) release_if_unlinked(reg_, reg_.checked(e.id), locks);
  }
  dir_.on_node_death(id);
}

void MaintenanceEngine::purge_dead_neighbor(TapestryNode& at, NodeId dead,
                                            Trace* trace) {
  purge_dead_neighbor(at, dead, trace, nullptr);
}

void MaintenanceEngine::purge_dead_neighbor(TapestryNode& at, NodeId dead,
                                            Trace* trace,
                                            const NodeLockTable* locks) {
  rerouting(at, trace, locks, [&] {
    const unsigned gcp = at.id().common_prefix_len(dead);
    for (unsigned l = 0; l <= gcp && l < params_.id.num_digits; ++l) {
      unlink(reg_, at, l, dead, locks);
      refill_slot(at, l, dead.digit(l), trace, locks);
      NodeLockTable::Guard g(locks, at.id());
      at.table().remove_backpointer(l, dead);
    }
  });
  release_if_unlinked(reg_, reg_.checked(dead), locks);
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
  heartbeat_round(trace);
  fill_pass(trace);
}

void MaintenanceEngine::heartbeat_round(Trace* trace) {
  const unsigned digits = params_.id.num_digits;

  // Pushes, all at the sweep's instant: each live node sends one "alive"
  // heartbeat to every distinct backpointer holder, except a live holder
  // with a lower id that it lists too: that holder's own push crosses the
  // same link, and a delivered push tells both ends the other is alive.
  // A holder that is a corpse never hears its push, so the pusher drops
  // its backpointers to it and pushes to it only this once.  A node
  // touches only its own table.
  for (const auto& xp : reg_.nodes()) {
    if (!xp->alive) continue;
    TapestryNode& x = *xp;
    holders_.clear();
    for (unsigned l = 0; l < digits; ++l) {
      const auto row = x.table().backpointers(l);
      holders_.insert(holders_.end(), row.begin(), row.end());
    }
    std::sort(holders_.begin(), holders_.end());
    holders_.erase(std::unique(holders_.begin(), holders_.end()),
                   holders_.end());
    for (const NodeId& h : holders_) {
      TapestryNode& to = reg_.checked(h);
      if (to.alive && h < x.id() && lists(x.table(), h)) continue;
      Message alive = make_message(MessageKind::kHeartbeatAck, x.id(), h, h);
      alive.flag = true;
      transport_->send(alive, reg_.hop_dist(trace, x, to), trace);
      if (to.alive) continue;
      for (unsigned l = 0; l < digits; ++l) x.table().remove_backpointer(l, h);
      release_if_unlinked(reg_, to);
    }
  }

  // Probes: a member no push came from is dead.  Each live node probes it
  // (no answer) and runs the same purge a failed routing step would, in
  // table order.  The row is re-read before each probe: a purge's §4.2
  // reroute may already have purged the next corpse.
  for (const auto& np : reg_.nodes()) {
    if (!np->alive) continue;
    TapestryNode& n = *np;
    for (unsigned l = 0; l < digits; ++l) {
      while (const auto dead = dead_member(reg_, n, l)) {
        transport_->send(
            make_message(MessageKind::kHeartbeatProbe, n.id(), *dead, *dead),
            reg_.hop_dist(trace, n, reg_.checked(*dead)), trace);
        purge_dead_neighbor(n, *dead, trace);
      }
    }
  }
}

void MaintenanceEngine::fill_pass(Trace* trace) {
  const unsigned digits = params_.id.num_digits;
  const unsigned radix = params_.id.radix();
  // Refills every empty slot some live id fits: holes no repair opened,
  // such as one left by a join made during a partition.  The search is
  // complete and a fill only adds a link, so one pass leaves no fillable
  // hole.  A slot no live id fits (Property 1's empty slots, mostly) is
  // skipped without a search, and the pointer snapshot waits until a
  // replacement turns up.
  for (const auto& np : reg_.nodes()) {
    if (!np->alive) continue;
    TapestryNode& n = *np;
    for (unsigned l = 0; l < digits; ++l) {
      for (unsigned j = 0; j < radix; ++j) {
        if (!n.table().slot_empty(l, j)) continue;
        const auto [first, last] = reg_.live_in_slot(n.id(), l, j);
        if (first == last) continue;
        const auto rep = find_replacement(n, l, j, trace, nullptr);
        if (!rep.has_value()) continue;
        rerouting(n, trace, nullptr,
                  [&] { link(reg_, n, l, reg_.live(*rep)); });
      }
      // Every deeper class lies inside n's own-digit class; once n is its
      // only live member, no hole below is fillable.
      const auto [mine, mine_end] =
          reg_.live_in_slot(n.id(), l, n.id().digit(l));
      if (mine_end - mine == 1) break;
    }
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

void MaintenanceEngine::run_wave(const std::vector<TapestryNode*>& relinked,
                                 Trace* trace,
                                 const std::function<void()>& threads) {
  using Hops = std::vector<ObjectDirectory::PendingReroute>;
  std::vector<std::pair<TapestryNode*, Hops>> before;
  // An empty store snapshots to nothing, so it has nothing to re-route.
  for (TapestryNode* n : relinked)
    if (n->alive && !n->store().empty())
      before.emplace_back(n, dir_.snapshot_pointer_hops(*n));
  threads();
  for (const auto& [n, hops] : before)
    dir_.reroute_changed_pointers(*n, hops, trace);
}

void MaintenanceEngine::repair_wave(
    const std::vector<NodeId>& victims, std::size_t workers, Trace* trace,
    const std::function<void(const NodeId&, Trace*)>& repair) {
  // The repairs change the forward tables of the victims' holders only.
  std::vector<TapestryNode*> holders;
  std::unordered_set<std::uint64_t> seen;
  for (const NodeId& v : victims)
    for (const NodeId& h : reg_.checked(v).table().all_backpointers())
      if (seen.insert(h.value()).second) holders.push_back(&reg_.checked(h));
  run_wave(holders, trace, [&] {
    std::vector<Trace> traces(victims.size());
    parallel_for(
        victims.size(), [&](std::size_t i) { repair(victims[i], &traces[i]); },
        workers);
    // Merged in victim order: deterministic counters up to scheduling-
    // dependent repair overlap; invariants never depend on them.
    if (trace != nullptr)
      for (const Trace& t : traces) trace->absorb(t);
  });
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
  repair_wave(victims, workers, trace, [&](const NodeId& v, Trace* t) {
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
  repair_wave(victims, workers, trace, [&](const NodeId& v, Trace* t) {
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
  rerouting(n, trace, nullptr, [&] {
    for (unsigned l = 0; l < params_.id.num_digits; ++l) {
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
  });
}

void MaintenanceEngine::optimize_gossip(NodeId id, Trace* trace) {
  TapestryNode& n = reg_.live(id);
  rerouting(n, trace, nullptr, [&] {
    for (unsigned l = 0; l < params_.id.num_digits; ++l) {
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
  });
}

void MaintenanceEngine::rebuild_neighbor_table(NodeId id, Trace* trace) {
  TapestryNode& n = reg_.live(id);
  rerouting(n, trace, nullptr, [&] {
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
  });
}

}  // namespace tap
