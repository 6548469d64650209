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
// Every §3-§4.4 insertion step, every §5 repair step — departure, purge,
// replacement search, heartbeat and fill — and every table link is
// one implementation taking a `const NodeLockTable* locks`: null runs it
// serially on a quiescent mesh (join_via, leave, heartbeat_sweep, and
// ParallelJoinCoordinator's event-driven joins), the registry's table runs
// it inside a thread-parallel wave (join_bulk, leave_bulk and friends
// below) under the stripe discipline of node_locks.h.
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

/// Rejects a malformed join batch before any of it runs; join_bulk and
/// ParallelJoinCoordinator::run share it.  The batch must be non-empty and
/// the network not; locations must lie in the metric space, explicit ids
/// must match the IdSpec and be unused and unique within the batch, and
/// explicit gateways live.  Returns the explicit ids, which the ids drawn
/// for the batch's other joins must avoid (MaintenanceEngine::fresh_join_id).
[[nodiscard]] std::unordered_set<std::uint64_t> check_join_batch(
    const NodeRegistry& reg, const std::vector<JoinRequest>& requests);

/// The §4.4 watch list a multicast carries (Figure 11, Lemma 6): one
/// bitmask per level, bit j set => slot (level, j) is still unknown to the
/// inserting node.
using WatchList = std::vector<std::uint64_t>;

/// One forwarding target of the §4.4 acknowledged multicast.
struct MulticastChild {
  NodeId id{};
  unsigned prefix_len = 0;
};

/// Per-join state of one insertion in flight (§4.4), shared by the three
/// callers of the insertion steps: join_via, join_bulk and
/// ParallelJoinCoordinator.
struct InsertionSession {
  NodeId nn{};              ///< the inserting node
  NodeId surrogate{};       ///< core node the multicast starts from
  unsigned alpha = 0;       ///< prefix length of the filled hole
  unsigned hole_digit = 0;  ///< nn's digit at alpha: the slot nn fills
  std::unordered_set<std::uint64_t> processed;  ///< nodes that ran FUNCTION
  std::unordered_set<std::uint64_t> pinned_at;  ///< nodes holding our pin
  std::vector<NodeId> alpha_list;  ///< the α-list, in visit order
  /// Where this join's messages are booked: the caller's Trace for a
  /// serial join (may be null), a per-join Trace in a wave or in the
  /// coordinator.
  Trace* trace = nullptr;
  bool done = false;  ///< finish_insertion ran
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
  /// Full dynamic insertion (Figure 7) via a uniformly random live gateway.
  NodeId join(Location loc, std::optional<NodeId> id = std::nullopt,
              Trace* trace = nullptr);
  /// Full dynamic insertion via a specific gateway node.
  NodeId join_via(NodeId gateway, Location loc,
                  std::optional<NodeId> id = std::nullopt,
                  Trace* trace = nullptr);
  /// Thread-parallel dynamic insertion (§4.4 on real threads).  Returns
  /// the new node ids in request order; `workers` = 0 uses hardware
  /// concurrency; `trace`, if given, absorbs each join's messages in
  /// request order.
  ///
  /// The wave runs the insertion steps below given the registry's
  /// NodeLockTable, fanned out over real threads.  Each worker thread
  /// drives one join's complete state machine — surrogate acquisition,
  /// preliminary table copy, acknowledged multicast with pinned pointers /
  /// watch lists / filled-hole forwarding, pin release, and the §3
  /// nearest-neighbor table construction — synchronously, racing every
  /// other in-flight join through the registry's lock-free index
  /// snapshots and the per-node stripe locks.  The multicast is a
  /// depth-first walk whose return from a subtree IS that subtree's
  /// acknowledgement.  Where ParallelJoinCoordinator interleaves
  /// *messages* in simulated time, a wave interleaves *real memory
  /// operations*: pinned-pointer insertion, filled-hole forwarding and
  /// watch-list reports from concurrent joins genuinely contend on the
  /// same RoutingTable mutation wrappers.
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
  /// Determinism contract: the batch is validated (check_join_batch) and
  /// node ids and gateways are drawn serially before any thread starts,
  /// so same seed + any worker count produces the same membership — and
  /// therefore the same Property 1 occupancy pattern — while message
  /// orderings (and hence which of several equally valid neighbors a slot
  /// holds) may differ run to run.  Convergence is asserted on invariants
  /// (no lost pins, all watched holes resolved, surrogate agreement,
  /// backpointer symmetry), not on bit-identical transcripts;
  /// fingerprint_occupancy (fingerprint.h) is the cross-worker-count
  /// witness.
  ///
  /// Object pointers: waves touch no store.  The insertion steps do no
  /// incremental §4.2 pointer rerouting given a lock table (a joining node
  /// holds no pointers yet, and the walks would couple every join to every
  /// store) — the one thing they do differently rather than only
  /// synchronise differently; the §6.5 soft-state republish is the
  /// designated backstop for join waves.  The network must be quiescent
  /// apart from racers that synchronise through the node-lock table
  /// (guarded publish batches, store expiry sweeps).  Repair waves are
  /// different — leave_bulk / fail_and_repair_bulk reroute incrementally
  /// inside the wave, per holder, under the same stripe discipline, and do
  /// NOT rely on the republish backstop.
  std::vector<NodeId> join_bulk(const std::vector<JoinRequest>& requests,
                                std::size_t workers = 0,
                                Trace* trace = nullptr);

  /// Voluntary departure (§5.1): notifies backpointer holders with
  /// replacement hints, re-roots object pointers, then disconnects.
  void leave(NodeId node, Trace* trace = nullptr);
  /// Involuntary fail-stop (§5.2): the node simply stops responding.
  void fail(NodeId node);
  /// Soft-state heartbeat maintenance (§5.2, §6.5): every live node
  /// pushes a heartbeat to each backpointer holder, corpses included, and
  /// probes and purges the table members it did not hear from (corpses);
  /// then one fill pass refills every empty slot a live node fits.  Counts
  /// one tapestry_heartbeat_sweeps_total.
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
  // §4.2 pointer rerouting happens *incrementally inside the wave*: around
  // each holder's table mutations the holder's pointer hops are
  // snapshotted and re-pushed through the directory's pointer maintenance
  // given the stripe locks, never deferred to the §6.5 republish backstop.
  // Two racing reroutes can strand a record that lands on a holder after
  // that holder's snapshot was taken (impossible serially).  A leave or
  // fail wave therefore ends with one epilogue, the quiescent
  // ObjectDirectory::repair_pointer_chains pass, which re-pushes the
  // stranded records, so objects are locatable the moment the wave
  // returns.  The epilogue sends no heartbeat and fills no slot.
  //
  // A leave or fail wave repairs only what it breaks, as the serial leave
  // and lazy purge do: it notifies or purges exactly the nodes that link
  // to a victim, and never scans the mesh for other corpses or holes.  A
  // node that died by a plain fail() stays in its holders' tables, and a
  // hole no repair opened stays empty, until a heartbeat sweep (serial,
  // timed or heartbeat_sweep_bulk) probes the one and fills the other; a
  // routing walk that trips over a corpse purges it too.
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
  // Concurrency requirements: guarded reroutes write through the store
  // backends, so a leave, fail or heartbeat wave on more than one worker
  // (0 = hardware concurrency counts as more) needs StoreBackend::kSharded
  // and TAP_CHECKs it before touching anything; waves racing other store
  // users need it too.  join_bulk touches no store and is unchecked.

  /// Voluntary departure of every victim at once.  Serial preamble:
  /// withdraw the victims' replicas while the mesh still routes through
  /// them, then mark every victim dead, so hint and holder lists never
  /// name a co-departing node.  Parallel phase: per-victim holder repair
  /// with in-wave rerouting, then REMOVELINK.  Then the epilogue (chain
  /// repair only: no heartbeat, no fill pass).
  void leave_bulk(const std::vector<NodeId>& victims, std::size_t workers = 0,
                  Trace* trace = nullptr);
  /// Fail-stop of every victim at once plus the repair a lazy system would
  /// perform over time: victims are marked dead serially, then every
  /// backpointer holder of each victim is purged in parallel (slot
  /// removal, complete replacement hunt, in-wave reroute), then the
  /// epilogue (chain repair only: no heartbeat, no fill pass).  Backpointer
  /// symmetry makes the holders exactly the nodes lazy repair would
  /// eventually have discovered the corpse from.  Corpses that are not
  /// victims are left to the next heartbeat sweep.
  void fail_and_repair_bulk(const std::vector<NodeId>& victims,
                            std::size_t workers = 0, Trace* trace = nullptr);
  /// heartbeat_sweep fanned out across `workers` real threads (one task
  /// per node): the heartbeat round, then the fill pass, then the chain
  /// repair.  Membership must be quiescent; guarded store
  /// racers (publish batches, expiry sweeps, peeked queries) are fine.
  /// Counts one sweep, as heartbeat_sweep does.  It is the only wave that
  /// heartbeats: leave and fail waves send no heartbeat and count no sweep.
  void heartbeat_sweep_bulk(std::size_t workers = 0, Trace* trace = nullptr);

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

  // --- insertion steps (§3-§4.4; join.cc) ---
  // One implementation each, driven by join_via (serial, Figure 7's plain
  // multicast), join_bulk (a wave on real threads, given the registry's
  // lock table) and ParallelJoinCoordinator (events in simulated time,
  // null locks).

  /// A fresh random id outside `taken`, which it joins.
  [[nodiscard]] NodeId fresh_join_id(std::unordered_set<std::uint64_t>& taken);
  /// ACQUIREPRIMARYSURROGATE plus the §4.4 core-start rule: routes from
  /// `gateway` toward `nn` and, while the root reached is itself
  /// inserting, bounces to that node's own surrogate.
  [[nodiscard]] NodeId acquire_surrogate(NodeId gateway, const NodeId& nn,
                                         Trace* trace,
                                         const NodeLockTable* locks);
  /// Registers s.nn at `loc` as inserting under s.surrogate, fixes α and
  /// the hole digit, and copies the surrogate's preliminary table.
  void begin_insertion(InsertionSession& s, Location loc,
                       const NodeLockTable* locks);
  /// The watch list a §4.4 multicast starts with: every slot the new node
  /// still knows no one for.
  [[nodiscard]] WatchList watch_list(const InsertionSession& s,
                                     const NodeLockTable* locks) const;
  /// FUNCTION of the §4.4 multicast at `at`: serves the watch list, pins
  /// the new node into the hole it fills, adopts it where it is closer,
  /// and returns the forwarding targets — or nullopt if `at` already ran
  /// FUNCTION for this session (a duplicate: acknowledge at once).
  [[nodiscard]] std::optional<std::vector<MulticastChild>> visit(
      InsertionSession& s, const NodeId& at, unsigned prefix_len,
      WatchList& watch, const NodeLockTable* locks);
  /// Unlocks the pin at `at` once its subtree is acknowledged (Lemma 4).
  void release_pin(InsertionSession& s, const NodeId& at,
                   const NodeLockTable* locks);
  /// Releases leftover pins, runs the §3 descent over the α-list and
  /// clears the node's inserting flag.
  void finish_insertion(InsertionSession& s, const NodeLockTable* locks);

 private:
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
  /// The wave's §4.4 multicast from `at`: depth-first over visit and
  /// release_pin, each subtree's return being its acknowledgement.
  void multicast_wave(InsertionSession& s, const NodeId& at,
                      unsigned prefix_len, WatchList watch,
                      const NodeLockTable* locks);

  // Non-null `locks` below means "inside a wave", whose membership is
  // fixed before its threads start, so the registry's live-id index stays
  // readable (NodeRegistry::live_in_slot).

  /// Drops `dead` from every slot of `at` it could occupy, refills each
  /// slot that empties, and re-routes the pointers whose next hop moved.
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
  /// §5.1 holder notifications and REMOVELINK for `a`, already dead.
  void depart(TapestryNode& a, Trace* trace, const NodeLockTable* locks);
  /// Refills slot (level, digit) of `at` if it is empty (Property 1).
  void refill_slot(TapestryNode& at, unsigned level, unsigned digit,
                   Trace* trace, const NodeLockTable* locks);
  /// Scans `n`'s table members from row `level` on and returns the first
  /// corpse, leaving `level` at its row.  Each live member's pushed
  /// heartbeat reaches `n` as one kHeartbeatAck, booked member to node;
  /// only a dead member is sent a kHeartbeatProbe, which goes unanswered.
  /// The push needs no lookup of the member's backpointers: link, unlink
  /// and the §4.4 pins keep a live node's backpointers the exact inverse
  /// of the live forward links to it.  Its pushes to corpses go out in
  /// the sweep's pass 0.
  /// Ids in the sorted `confirmed` were heard from earlier in the sweep
  /// and are skipped; each live member joins them.
  std::optional<NodeId> first_corpse(TapestryNode& n, unsigned& level,
                                     std::vector<std::uint64_t>& confirmed,
                                     Trace* trace, const NodeLockTable* locks);
  /// A sweep's heartbeat round: the pushes to corpses (pass 0), then every
  /// live node hears from its live members and probes and purges the
  /// silent ones (pass 1).
  void heartbeat_round(Trace* trace, const NodeLockTable* locks,
                       std::size_t workers);
  /// One pass over every live node refilling each empty slot a live id
  /// fits: the sweeps' recovery for holes no repair opened.  The search is
  /// complete and a fill only adds a link, so the pass leaves no fillable
  /// hole.
  void fill_pass(Trace* trace, const NodeLockTable* locks,
                 std::size_t workers);
  /// Runs `body` on every live node.  Serial: registry order, `trace`
  /// passed straight through.  Threaded: one task and one Trace per node,
  /// absorbed in node order.
  void for_each_live(const NodeLockTable* locks, std::size_t workers,
                     Trace* trace,
                     const std::function<void(TapestryNode&, Trace*)>& body);
  /// The threaded half of a wave: `repair` per victim, then the epilogue,
  /// the quiescent chain repair.  No heartbeat round and no fill pass: a
  /// wave's repairs already reached every node that listed a victim, and
  /// other corpses and holes wait for a sweep.
  void run_wave(const std::vector<NodeId>& victims, std::size_t workers,
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
};

}  // namespace tap
