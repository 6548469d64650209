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
#pragma once

#include <cstdint>
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

/// The §3 k-list trim, shared by the serial join (join.cc) and the
/// threaded driver (threaded_join.cc) so both run the SAME rule: dedupe,
/// drop dead nodes and the node itself, order by (distance, id), keep the
/// k closest.  Pure reads — callers provide whatever synchronisation the
/// candidate list itself needed.
[[nodiscard]] std::vector<NodeId> trim_closest_candidates(
    const NodeRegistry& reg, const TapestryNode& nn, std::vector<NodeId> list,
    std::size_t k);

class MaintenanceEngine final : public RepairHandler {
 public:
  MaintenanceEngine(NodeRegistry& registry, Router& router,
                    ObjectDirectory& directory, const TapestryParams& params,
                    EventQueue& events, Rng& rng);

  /// Wires the transport heartbeat probes and acks travel through
  /// (Network binds the overlay's; standalone engines use the shared
  /// direct fallback).
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
  /// Thread-parallel dynamic insertion (§4.4 on real threads): drives the
  /// whole batch through ThreadedJoinDriver — each worker thread runs one
  /// join's multicast/watch-list/pin state machine synchronously, racing
  /// the others through the per-node stripe locks — and returns the new
  /// node ids in request order.  `workers` = 0 uses hardware concurrency.
  /// Determinism contract: ids/gateways are drawn serially up front, so
  /// same seed + any worker count yields the same membership and a table
  /// set satisfying the convergence invariants (Property 1, backpointer
  /// symmetry, no leftover pins, surrogate agreement) — message orderings,
  /// and therefore exact neighbor choices, may differ between runs.
  std::vector<NodeId> join_bulk(const std::vector<JoinRequest>& requests,
                                std::size_t workers = 0);

  /// Voluntary departure (§5.1): notifies backpointer holders with
  /// replacement hints, re-roots object pointers, then disconnects.
  void leave(NodeId node, Trace* trace = nullptr);
  /// Involuntary fail-stop (§5.2): the node simply stops responding.
  void fail(NodeId node);
  /// Thread-parallel voluntary departure (§5.1 on real threads): every
  /// victim leaves at once, each worker thread driving one victim's
  /// holder notifications, slot repair and REMOVELINK under the stripe
  /// discipline, with §4.2 rerouting performed incrementally inside the
  /// wave (no republish backstop).  Same determinism contract as
  /// join_bulk: victims are validated and marked serially up front, so
  /// same seed + any worker count yields identical surviving membership
  /// and identical fingerprint_occupancy at quiescence.
  void leave_bulk(const std::vector<NodeId>& victims, std::size_t workers = 0,
                  Trace* trace = nullptr);
  /// Thread-parallel fail-stop plus eager repair (§5.2 on real threads):
  /// all victims stop at once, then every backpointer holder is purged in
  /// parallel (slot removal, complete replacement hunt, in-wave reroute)
  /// and a threaded sweep restores Property 1 — locatability is back the
  /// moment the call returns, without republishing.
  void fail_and_repair_bulk(const std::vector<NodeId>& victims,
                            std::size_t workers = 0, Trace* trace = nullptr);
  /// heartbeat_sweep fanned out across `workers` real threads (one per
  /// node, striped locks).  Membership must be quiescent; guarded store
  /// racers (publish batches, expiry sweeps, peeked queries) are fine.
  void heartbeat_sweep_bulk(std::size_t workers = 0, Trace* trace = nullptr);
  /// Soft-state heartbeat maintenance (§5.2, §6.5): probe table entries,
  /// purge corpses, then hunt replacements for emptied slots to fixpoint.
  void heartbeat_sweep(Trace* trace = nullptr);

  /// Runs heartbeat_sweep as a recurring EventQueue event every `every`
  /// simulated time units (first firing at now + every), so lazy repair
  /// interleaves with in-flight publishes and queries.  Restarting
  /// replaces a running timer.  The recurring event holds `trace` until
  /// stop_heartbeats(): it must outlive the timer.
  void start_heartbeats(double every, Trace* trace = nullptr);
  void stop_heartbeats();
  [[nodiscard]] bool heartbeats_running() const noexcept {
    return heartbeat_event_.has_value();
  }

  // --- failure repair (§5.2) ---
  void purge_dead_neighbor(TapestryNode& at, NodeId dead,
                           Trace* trace) override;
  std::optional<NodeId> find_replacement(TapestryNode& at, unsigned level,
                                         unsigned digit, Trace* trace);

  // --- table-link coherence ---
  /// owner.table slot (level, nbr.digit(level)) considers nbr; keeps
  /// backpointers coherent on insert and evict.  Returns true if inserted.
  bool link(TapestryNode& owner, unsigned level, TapestryNode& nbr);
  /// Removes nbr from owner's slot at `level` (if present).  NodeId is
  /// taken by value: callers often pass ids that live inside the very
  /// containers these routines mutate.
  void unlink(TapestryNode& owner, unsigned level, NodeId nbr);
  /// Offers `cand` to every slot of `host` it qualifies for (all levels
  /// l <= common prefix).  The paper's ADDTOTABLEIFCLOSER.
  bool add_to_table_if_closer(TapestryNode& host, TapestryNode& cand);

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

  // --- join internals (§3-§4), shared with ParallelJoinCoordinator ---
  void copy_preliminary_table(TapestryNode& nn, TapestryNode& surrogate,
                              unsigned max_level, Trace* trace);
  void link_and_xfer_root(TapestryNode& host, TapestryNode& nn, Trace* trace);
  void acquire_neighbor_table(TapestryNode& nn, unsigned max_level,
                              std::vector<NodeId> initial_list, Trace* trace);

 private:
  std::vector<NodeId> get_next_list(
      TapestryNode& nn, const std::vector<NodeId>& list, unsigned level,
      std::unordered_set<std::uint64_t>& contacted, Trace* trace);
  void build_row_from_list(TapestryNode& nn, const std::vector<NodeId>& list,
                           unsigned level);
  [[nodiscard]] std::vector<NodeId> trim_closest(const TapestryNode& nn,
                                                 std::vector<NodeId> list,
                                                 std::size_t k) const;

  void schedule_heartbeat_tick(double every, Trace* trace);

  Transport* transport_ = default_transport();
  NodeRegistry& reg_;
  Router& router_;
  ObjectDirectory& dir_;
  const TapestryParams& params_;
  EventQueue& events_;
  Rng& rng_;
  std::optional<EventId> heartbeat_event_;
};

}  // namespace tap
