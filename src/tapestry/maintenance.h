// MaintenanceEngine: everything that changes the routing mesh.
//
// Membership — dynamic insertion (§3-§4), voluntary delete (§5.1),
// fail-stop plus lazy repair (§5.2), the periodic heartbeat sweep — and the
// continual-optimization heuristics of §6.4, plus the low-level table-link
// coherence primitives (link / unlink / ADDTOTABLEIFCLOSER) every mutation
// funnels through so forward links and backpointers stay mirrored.
//
// The engine implements the Router's RepairHandler interface: when a
// routing walk discovers a corpse, the purge (secondary promotion, slot
// replacement hunt, pointer re-route) happens here.  Pointer re-routing is
// delegated to the ObjectDirectory so Property 4 survives table churn.
//
// Every §3-§4.4 insertion step, every §5 repair step a wave runs —
// departure, purge, replacement search — and every table link is one
// implementation taking a `const NodeLockTable* locks`: null runs it
// serially on a quiescent mesh (join_via, join_events, leave, the
// heartbeat sweep), the registry's table runs it inside a thread-parallel
// wave (join_bulk, leave_bulk, fail_and_repair_bulk) under the stripe
// discipline of node_locks.h.  The sweep's own passes, heartbeat and fill,
// run serially only.  A step changes tables through `rerouting`: serially
// it re-routes the object pointers (§4.2) around each change; given the
// lock table it changes tables only, and the wave re-routes serially
// around its threads (run_wave), so no worker thread touches a store.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_set>
#include <vector>

#include "src/tapestry/object_directory.h"
#include "src/tapestry/registry.h"
#include "src/tapestry/router.h"

namespace tap {

/// One dynamic insertion of a thread-parallel join wave (see join_bulk).
struct JoinRequest {
  Location loc{};
  std::optional<NodeId> id{};       ///< default: fresh random id
  std::optional<NodeId> gateway{};  ///< default: uniformly random live node
};

/// One join of an event-driven batch (see join_events).
struct EventJoin {
  Location loc{};
  std::optional<NodeId> id{};  ///< default: fresh random id
  double start_time = 0.0;     ///< absolute event-queue time
  NodeId gateway{};            ///< must be a core node at start_time
};

/// What one join of join_events did.
struct JoinOutcome {
  NodeId id{};
  NodeId surrogate{};        ///< core node the multicast started from
  unsigned alpha = 0;        ///< prefix length of the filled hole
  double start_time = 0.0;
  double core_time = 0.0;    ///< multicast fully acknowledged (Def. 1)
  double done_time = 0.0;    ///< neighbor table complete (= core_time)
  std::size_t messages = 0;  ///< total messages attributed to this join
};

// --- table-link coherence ---
// The one copy of the rules every routing-table mutation goes through,
// serial (`locks` null) or racing other threads (the registry's
// NodeLockTable):
//   * a mutation of owner's slot plus the mirroring backpointer on the
//     other side happens under the two-node Guard (address-ordered,
//     deduplicated stripes);
//   * a third node touched as a side effect (the evictee of consider())
//     is never locked while two stripes are held — the pair is
//     re-validated after the locks drop (sync_backpointer), and the
//     temporally last validation for an (owner, member, level) triple
//     writes the truth;
//   * a thread holds at most one Guard at any instant, so the scheme is
//     deadlock-free by construction.

/// owner.table slot (level, nbr.digit(level)) considers nbr; keeps
/// backpointers coherent on insert and evict.  Returns true if inserted.
bool link(NodeRegistry& reg, TapestryNode& owner, unsigned level,
          TapestryNode& nbr, const NodeLockTable* locks = nullptr);
/// Removes nbr from owner's slot at `level` (if present).  NodeId is
/// taken by value: callers often pass ids that live inside the very
/// containers these routines mutate.
void unlink(NodeRegistry& reg, TapestryNode& owner, unsigned level,
            NodeId nbr, const NodeLockTable* locks = nullptr);
/// Offers `cand` to every slot of `host` it qualifies for (all levels
/// l <= common prefix).  The paper's ADDTOTABLEIFCLOSER.
bool add_to_table_if_closer(NodeRegistry& reg, TapestryNode& host,
                            TapestryNode& cand,
                            const NodeLockTable* locks = nullptr);
/// Validating backpointer mirror: sets member's backpointer to reflect
/// owner's *current* slot membership (not a replay of any one mutation).
void sync_backpointer(NodeRegistry& reg, const NodeId& owner,
                      const NodeId& member, unsigned level,
                      const NodeLockTable* locks = nullptr);
/// Frees corpse `c`'s routing table (RoutingTable::release) once no link
/// held by a live node names it: no live node lists it, which its
/// backpointers mirror, and no live node keeps a backpointer to it, which
/// only a live member it lists can.  A corpse gains no link, so a cut
/// that leaves it none is final.  The repairs call this after each cut
/// they make — the end of depart, a purge, a heartbeat push to the
/// corpse, and the death of a node it links with — so a corpse they
/// unlink holds no table at the next quiescent point.  A live node is
/// left alone.  The check reads through the table views (each read under
/// the node's stripe when `locks` is given), and neither it nor the
/// release allocates.
void release_if_unlinked(const NodeRegistry& reg, TapestryNode& c,
                         const NodeLockTable* locks = nullptr);

class MaintenanceEngine final : public RepairHandler {
 public:
  MaintenanceEngine(NodeRegistry& registry, Router& router,
                    ObjectDirectory& directory, const TapestryParams& params,
                    EventQueue& events, Rng& rng);

  /// Wires the transport heartbeats and corpse probes travel through;
  /// Network binds the overlay's at construction.
  void bind_transport(Transport* transport) noexcept {
    transport_ = transport;
  }

  // --- membership (§3-§5) ---
  /// Creates the first node of the overlay.  `id` defaults to random.
  NodeId bootstrap(Location loc, std::optional<NodeId> id = std::nullopt);
  /// Full dynamic insertion (Figure 7, its multicast the §4.4 one) via a
  /// uniformly random live gateway.
  NodeId join(Location loc, std::optional<NodeId> id = std::nullopt,
              Trace* trace = nullptr);
  /// Full dynamic insertion via a specific gateway node: one serial run
  /// of `insert`.
  NodeId join_via(NodeId gateway, Location loc,
                  std::optional<NodeId> id = std::nullopt,
                  Trace* trace = nullptr);
  /// Thread-parallel dynamic insertion (§4.4 on real threads).  Returns
  /// the new node ids in request order; `workers` = 0 uses hardware
  /// concurrency; `trace`, if given, absorbs each join's messages in
  /// request order.
  ///
  /// The wave runs join_via's body, `insert`, given the registry's
  /// NodeLockTable, fanned out over real threads.  Each worker thread
  /// drives one join's complete state machine — surrogate acquisition,
  /// preliminary table copy, acknowledged multicast with pinned pointers /
  /// watch lists / filled-hole forwarding, pin release, and the §3
  /// nearest-neighbor table construction — synchronously, racing every
  /// other in-flight join through the per-node stripe locks.  Its walk to
  /// the surrogate is the non-repairing peek, so no worker reads the
  /// registry's live-id lists.  Each message of the multicast is handled
  /// the moment it is sent, so the multicast is a depth-first walk.
  /// Where join_events interleaves *messages* in simulated time, a wave
  /// interleaves *real memory operations*: pinned-pointer insertion,
  /// filled-hole forwarding and watch-list reports from concurrent joins
  /// genuinely contend on the same RoutingTable mutation wrappers.
  ///
  /// Locking discipline (see node_locks.h): every access to a node's
  /// routing table or insertion flags takes that node's stripe; mutations
  /// that mirror into a second node's backpointers take both stripes in
  /// address order; a thread never holds more than one Guard, so the
  /// scheme is deadlock-free by construction.  Eviction side effects on
  /// third nodes are re-validated against the owner's current table after
  /// the locks drop (sync_backpointer) — the temporally last validation
  /// for an (owner, member, level) triple writes the truth, so forward
  /// links and backpointers mirror exactly at quiescence.
  ///
  /// Determinism contract: the batch is validated (check_join_batch), node
  /// ids and gateways are drawn, and the joiners are registered in request
  /// order, all serially before any thread starts, so the registry does
  /// not change beside the threads (registry.h).  Same seed + any worker
  /// count produces the same membership, registered in the same order —
  /// and therefore the same Property 1 occupancy pattern — while message
  /// orderings (and hence which of several equally valid neighbors a slot
  /// holds) may differ run to run.  Convergence is asserted on invariants
  /// (no lost pins, all watched holes resolved, surrogate agreement,
  /// backpointer symmetry), not on bit-identical transcripts;
  /// fingerprint_occupancy (fingerprint.h) is the cross-worker-count
  /// witness.
  ///
  /// Object pointers: the wave snapshots every live node's pointer hops
  /// before its threads start and re-routes each snapshot after they join
  /// (§4.2, run_wave), so it keeps Property 4 with no republish, as serial
  /// joins do.  Like every wave it runs alone (see the repair waves'
  /// contract below).
  std::vector<NodeId> join_bulk(const std::vector<JoinRequest>& requests,
                                std::size_t workers = 0,
                                Trace* trace = nullptr);
  /// Simultaneous insertion in simulated time (§4.4): the insertion body
  /// join_via runs, with every multicast forward and acknowledgement an
  /// event that arrives after the hop's metric distance plus a uniform
  /// [0, jitter] draw (one per message, seeded), so racing multicasts
  /// interleave as a real network would.  Each join starts at its
  /// start_time (or now, if later); ids left to draw are drawn then.  The
  /// batch is validated before anything is scheduled, so a malformed one
  /// throws CheckError and leaves the queue untouched.  Runs the event
  /// queue to quiescence and returns the outcomes in request order.
  std::vector<JoinOutcome> join_events(const std::vector<EventJoin>& requests,
                                       double jitter = 0.0);

  /// Voluntary departure (§5.1): notifies backpointer holders with
  /// replacement hints, re-roots object pointers, then disconnects, which
  /// frees the tombstone's table.
  void leave(NodeId node, Trace* trace = nullptr);
  /// Involuntary fail-stop (§5.2): the node simply stops responding.  Its
  /// table stays while live nodes link with it; a corpse it linked with
  /// whose last live link it was is freed (release_if_unlinked).
  void fail(NodeId node);
  /// Soft-state heartbeat maintenance (§5.2, §6.5): every live node first
  /// pushes a heartbeat to its backpointer holders, then probes and
  /// purges the table members it did not hear from (corpses); then one
  /// fill pass refills every empty slot a live node fits.  A link both
  /// live ends list carries one push, from the lower id: a delivered push
  /// tells both ends the other is alive.  A push to a corpse goes unheard,
  /// and the pusher drops its backpointers to it, so it pushes to each
  /// corpse once.  A sweep delivers one push per pair of live nodes linked
  /// either way, one per (live node, corpse holder) pair and one probe per
  /// (live node, dead member) pair present when it starts; a link the
  /// sweep makes itself is heard from at the next.  Every message is
  /// booked as it is sent.  Counts one tapestry_heartbeat_sweeps_total.
  /// Serial, on a quiescent mesh; it and its timer (start_heartbeats) are
  /// the only calls that heartbeat: leave and fail waves send no heartbeat
  /// and count no sweep.
  void heartbeat_sweep(Trace* trace = nullptr);

  // --- thread-parallel repair waves (§5.1, §5.2 on real threads) ---
  // The waves run the serial calls' protocol code given the registry's
  // NodeLockTable, fanned out over `workers` real threads (0 = hardware
  // concurrency).  Each worker thread drives the complete repair protocol
  // for one victim — for a leave: the LEAVINGNETWORK notifications to
  // every backpointer holder with replacement hints, the holders' slot
  // repair, and the final REMOVELINK retraction; for a failure: the
  // proactive purge every holder would otherwise perform lazily — racing
  // every other victim's repair through the shared link primitives.
  //
  // §4.2 pointer rerouting runs serially around the threads (run_wave),
  // never deferred to the §6.5 republish backstop: before they start the
  // wave snapshots the pointer hops of every node it may re-link (the
  // victims' backpointer holders, read off their tombstones), and after
  // they join it re-routes each snapshot in order, as the serial calls do
  // around one change.  Objects are locatable the moment the wave returns.
  //
  // A leave or fail wave repairs only what it breaks, as the serial leave
  // and lazy purge do: it notifies or purges exactly the nodes that link
  // to a victim, and never scans the mesh for other corpses or holes.  A
  // node that died by a plain fail() stays in its holders' tables, and a
  // hole no repair opened stays empty, until a heartbeat sweep (called or
  // timed) probes the one and fills the other; a routing walk that trips
  // over a corpse purges it too.
  //
  // Determinism contract (invariant-convergent, as for joins): victims are
  // validated and membership changes are applied serially before any
  // thread starts, so same seed + any worker count produces identical
  // membership.  The replacement search is the serial calls' own, and it
  // is *complete* (find_replacement): if the mesh held Property 1 before
  // the wave, then at quiescence a slot is occupied iff a live candidate
  // exists, which makes the Property 1 occupancy fingerprint
  // (fingerprint_occupancy) a function of membership alone.  Message
  // orderings — and which of several equally good neighbors a slot
  // holds — may differ run to run; convergence is asserted on invariants.
  //
  // A wave runs alone, joins included: from its serial preamble to its
  // last re-route nothing else runs on the overlay, so no one writes a
  // store or a locate cache while it runs.  Its membership changes happen
  // in that preamble too (a join wave registers its joiners, a leave or
  // fail wave marks its victims dead), so the registry does not change
  // beside its threads; a join worker only counts its joiner live.  Its
  // worker threads read and write routing tables only, under the stripe
  // locks (a join worker's guarded surrogate walk reads them the same
  // way), so a wave runs on any store backend, with or without the locate
  // cache, at any worker count.  Interleaving protocol messages is
  // simulated time's job (join_events, ChurnDriver), not that of threads
  // beside a wave.
  //
  // Tombstones: a leave wave frees each victim's table as its departure
  // ends, since nothing live links with it then.  A fail wave frees none:
  // the victims' live members still keep backpointers to them until a
  // sweep's pushes drop those, and the symmetry check's converse half
  // reads the corpse's slots meanwhile.  Each release runs under the
  // corpse's stripe, so another worker reading that table sees it whole
  // or freed.

  /// Voluntary departure of every victim at once.  Serial preamble:
  /// withdraw the victims' replicas while the mesh still routes through
  /// them, then mark every victim dead, so hint and holder lists never
  /// name a co-departing node.  Parallel phase: per-victim holder repair,
  /// then REMOVELINK.  Then the holders' §4.2 re-route (no heartbeat, no
  /// fill pass).
  void leave_bulk(const std::vector<NodeId>& victims, std::size_t workers = 0,
                  Trace* trace = nullptr);
  /// Fail-stop of every victim at once plus the repair a lazy system would
  /// perform over time: victims are marked dead serially, then every
  /// backpointer holder of each victim is purged in parallel (slot
  /// removal, complete replacement hunt), then the holders' §4.2 re-route
  /// (no heartbeat, no fill pass).  Backpointer symmetry makes the holders
  /// exactly the nodes lazy repair would eventually have discovered the
  /// corpse from.  Corpses that are not victims are left to the next
  /// heartbeat sweep.
  void fail_and_repair_bulk(const std::vector<NodeId>& victims,
                            std::size_t workers = 0, Trace* trace = nullptr);
  /// Runs heartbeat_sweep as a recurring EventQueue event every `every`
  /// simulated time units (first firing at now + every), so lazy repair
  /// interleaves with in-flight publishes and queries.  Restarting
  /// replaces a running timer.  The recurring event holds `trace` until
  /// stop_heartbeats(): it must outlive the timer.
  void start_heartbeats(double every, Trace* trace = nullptr);
  void stop_heartbeats();

  // --- failure repair (§5.2) ---
  /// Lazy repair of a corpse a routing walk tripped over (serial).
  void purge_dead_neighbor(TapestryNode& at, NodeId dead,
                           Trace* trace) override;

  // --- continual optimization (§6.4) ---
  /// Moves a node to a new underlay location (network drift model).
  /// Tables are NOT fixed up — that is what the heuristics below are for.
  void relocate(NodeId node, Location loc);
  /// Heuristic 1: re-rank every neighbor set of `node` by current distance.
  void optimize_primaries(NodeId node, Trace* trace = nullptr);
  /// Heuristic 4: ask each level-l neighbor for its level-l row and adopt
  /// closer members (the gossip scheme of §6.4 / Pastry / Tapestry [37]).
  void optimize_gossip(NodeId node, Trace* trace = nullptr);
  /// Heuristic 2: rerun the full nearest-neighbor table construction.
  void rebuild_neighbor_table(NodeId node, Trace* trace = nullptr);

  // --- oracle construction (static PRR preprocessing) ---
  /// Rebuilds every live node's table from global knowledge (Property 1+2
  /// by construction), fanning the per-node work out across `workers`
  /// threads (0 = hardware concurrency).  The result is bit-identical for
  /// every worker count: forward tables are a per-node function of the
  /// global candidate buckets, and backpointers land in sorted per-level
  /// vectors, so scheduling cannot leak into the outcome.  Relies on the
  /// metric's triangle inequality: the forward scan prunes candidates by
  /// it (static_build.cc).
  void rebuild_static_tables(std::size_t workers = 1);

 private:
  // --- the insertion (§3-§4.4; join.cc) ---
  // One implementation of each step, and one of the §4.4 multicast, run by
  // `insert` for all three drivers: join_via serially, join_bulk on real
  // threads given the registry's lock table, join_events as events in
  // simulated time (null locks).
  struct InsertionSession;
  struct MulticastChild;
  /// The §4.4 watch list a multicast carries (Figure 11, Lemma 6): one
  /// bitmask per level, bit j set => slot (level, j) is still unknown to
  /// the inserting node.
  using WatchList = std::vector<std::uint64_t>;

  /// One whole insertion of s.nn at `loc` through `gateway`: the
  /// surrogate, the preliminary table, the §4.4 multicast and, once the
  /// start node acknowledges, finish_insertion.  `send(from, to, handle)`
  /// carries each multicast message, already booked on s.trace, and runs
  /// `handle` where it arrives: at once for join_via and join_bulk, as an
  /// event for join_events.
  template <typename Send>
  void insert(InsertionSession& s, NodeId gateway, Location loc,
              const NodeLockTable* locks, Send& send);
  /// The multicast message reaching `at` from `parent` (none: the
  /// inserter's request to the start node): runs FUNCTION (visit), then
  /// forwards to the children, or acknowledges at once if it has none or
  /// `at` was reached before.
  template <typename Send>
  void reach(InsertionSession& s, const NodeId& at,
             std::optional<NodeId> parent, unsigned prefix_len,
             WatchList& watch, const NodeLockTable* locks, Send& send);
  /// `at`'s subtree is acknowledged: acks `parent`, whose last awaited ack
  /// unlocks its pin (Lemma 4) and acks its own parent in turn; the start
  /// node's acknowledgement (no parent) completes the insertion.
  template <typename Send>
  void acknowledge(InsertionSession& s, const NodeId& at,
                   std::optional<NodeId> parent, const NodeLockTable* locks,
                   Send& send);
  /// ACQUIREPRIMARYSURROGATE plus the §4.4 core-start rule: routes from
  /// `gateway` toward `nn` and, while the root reached is itself
  /// inserting, bounces to that node's own surrogate.
  [[nodiscard]] NodeId acquire_surrogate(NodeId gateway, const NodeId& nn,
                                         Trace* trace,
                                         const NodeLockTable* locks);
  /// Registers s.nn at `loc` as inserting, unless its wave's preamble did,
  /// records s.surrogate as its psurrogate and counts it live; then fixes
  /// α and the hole digit, and copies the surrogate's preliminary table.
  void begin_insertion(InsertionSession& s, Location loc,
                       const NodeLockTable* locks);
  /// The watch list a §4.4 multicast starts with: every slot the new node
  /// still knows no one for.
  [[nodiscard]] WatchList watch_list(const InsertionSession& s,
                                     const NodeLockTable* locks) const;
  /// FUNCTION of the §4.4 multicast at `at`: serves the watch list, pins
  /// the new node into the hole it fills, adopts it where it is closer,
  /// records `at` as reached from `parent`, and returns the forwarding
  /// targets — or nullopt if `at` was reached before (a duplicate).
  [[nodiscard]] std::optional<std::vector<MulticastChild>> visit(
      InsertionSession& s, const NodeId& at, std::optional<NodeId> parent,
      unsigned prefix_len, WatchList& watch, const NodeLockTable* locks);
  /// The forwarding targets at `at` (the caller holds its stripe).
  [[nodiscard]] std::vector<MulticastChild> multicast_children(
      const TapestryNode& at, const InsertionSession& s,
      unsigned prefix_len) const;
  /// Unlocks the pin at `at` once its subtree is acknowledged (Lemma 4).
  void release_pin(InsertionSession& s, const NodeId& at,
                   const NodeLockTable* locks);
  /// Runs the §3 descent over the α-list, clears the node's inserting
  /// flag and stamps the session done.
  void finish_insertion(InsertionSession& s, const NodeLockTable* locks);
  void copy_preliminary_table(TapestryNode& nn, TapestryNode& surrogate,
                              unsigned max_level, Trace* trace,
                              const NodeLockTable* locks);
  void link_and_xfer_root(TapestryNode& host, TapestryNode& nn, Trace* trace,
                          const NodeLockTable* locks);
  void acquire_neighbor_table(TapestryNode& nn, unsigned max_level,
                              std::vector<NodeId> initial_list, Trace* trace,
                              const NodeLockTable* locks);
  std::vector<NodeId> get_next_list(
      TapestryNode& nn, const std::vector<NodeId>& list, unsigned level,
      std::unordered_set<std::uint64_t>& contacted, Trace* trace,
      const NodeLockTable* locks);
  void build_row_from_list(TapestryNode& nn, const std::vector<NodeId>& list,
                           unsigned level, const NodeLockTable* locks);
  /// Figure 11 line 1: reports to the inserter every watched slot `at`
  /// can fill, marking it found before the multicast moves on.
  void serve_watch_list(InsertionSession& s, TapestryNode& at,
                        TapestryNode& nn, WatchList& watch,
                        const NodeLockTable* locks);
  /// insert with every message handled the moment it is sent, so the
  /// multicast is a depth-first walk: join_via serially, join_bulk per
  /// worker.
  void insert_now(const NodeId& nn, NodeId gateway, Location loc,
                  Trace* trace, const NodeLockTable* locks);

  // Non-null `locks` below means "inside a wave", whose membership is
  // fixed before its threads start, so the registry's live-id index stays
  // readable (NodeRegistry::live_in_slot).

  /// Drops `dead` from every slot of `at` it could occupy, refills each
  /// slot that empties, and (rerouting) re-routes the pointers whose next
  /// hop moved.
  void purge_dead_neighbor(TapestryNode& at, NodeId dead, Trace* trace,
                           const NodeLockTable* locks);
  /// A live node for slot (level, digit) of `at`, the closest by (distance,
  /// id) of those found, or nullopt if no live node fits.  Asks the
  /// level-`level` contacts (row members and backpointer holders, two
  /// messages each) for their entries in the slot first; if none has one,
  /// probes every live id in the slot's prefix range (one message each,
  /// NodeRegistry::live_in_slot).  Serial and wave callers alike.
  std::optional<NodeId> find_replacement(TapestryNode& at, unsigned level,
                                         unsigned digit, Trace* trace,
                                         const NodeLockTable* locks);
  /// §5.1 holder notifications and REMOVELINK for `a`, already dead; then
  /// nothing live links with `a`, and its table goes.
  void depart(TapestryNode& a, Trace* trace, const NodeLockTable* locks);
  /// Refills slot (level, digit) of `at` if it is empty (Property 1).
  void refill_slot(TapestryNode& at, unsigned level, unsigned digit,
                   Trace* trace, const NodeLockTable* locks);
  /// A sweep's heartbeat round, in two passes over the live nodes in
  /// registration order.  First each pushes one kHeartbeatAck to every
  /// distinct backpointer holder, save a live one with a lower id that it
  /// lists too, and drops its backpointers to a dead one: link, unlink and
  /// the §4.4 pins keep a live node's backpointers the exact inverse of
  /// the forward links to it, so the lower id of a mutual live pair holds
  /// a backpointer to the higher, and every pair of live nodes linked
  /// either way exchanges exactly one push.  Then each probes every dead
  /// member it still lists (one unanswered kHeartbeatProbe) and purges
  /// it, in table order, re-reading the row before each probe.  Neither
  /// pass reads a corpse's table.
  void heartbeat_round(Trace* trace);
  /// One pass over every live node, in registration order, refilling
  /// each empty slot a live id fits: the sweep's recovery for holes no
  /// repair opened.  The search is complete and a fill only adds a link,
  /// so the pass leaves no fillable hole.
  void fill_pass(Trace* trace);
  /// §4.2 around a table change of `n`: serially (`locks` null) the
  /// pointers whose next hop moved are re-routed at once; given a lock
  /// table the change runs bare, inside a wave that re-routes around its
  /// threads (run_wave).
  template <typename Change>
  void rerouting(TapestryNode& n, Trace* trace, const NodeLockTable* locks,
                 Change&& change) {
    if (locks != nullptr) {
      change();
      return;
    }
    const auto before = dir_.snapshot_pointer_hops(n);
    change();
    dir_.reroute_changed_pointers(n, before, trace);
  }
  /// A wave's §4.2, serial around its threads: snapshots the pointer hops
  /// of every live node in `relinked` that holds a record (`relinked` must
  /// hold each node whose forward table `threads` may change), then runs
  /// `threads`, then re-routes each snapshot in order, booked on `trace`.
  void run_wave(const std::vector<TapestryNode*>& relinked, Trace* trace,
                const std::function<void()>& threads);
  /// A leave or fail wave: `repair` per victim on `workers` threads, one
  /// Trace each, absorbed in victim order, inside run_wave over the
  /// victims' backpointer holders, read off their tombstones.  No
  /// heartbeat round and no fill pass: the repairs reach every node that
  /// lists a victim, and other corpses and holes wait for a sweep.
  void repair_wave(const std::vector<NodeId>& victims, std::size_t workers,
                   Trace* trace,
                   const std::function<void(const NodeId&, Trace*)>& repair);

  Transport* transport_ = nullptr;
  NodeRegistry& reg_;
  Router& router_;
  ObjectDirectory& dir_;
  const TapestryParams& params_;
  EventQueue& events_;
  Rng& rng_;
  Timer heartbeat_timer_;
  /// heartbeat_round's push buffer, one node's distinct backpointer
  /// holders: kept across sweeps, so a pass allocates only to grow it.
  std::vector<NodeId> holders_;
};

}  // namespace tap
