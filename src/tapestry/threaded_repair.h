// Thread-parallel membership repair: voluntary delete (§5.1, Figure 12),
// fail-stop repair (§5.2) and the heartbeat sweep executed on real threads
// under the NodeLockTable stripe discipline — the repair-side counterpart
// of ThreadedJoinDriver (threaded_join.h).
//
// Each worker thread drives the complete repair protocol for one victim —
// for a leave: the LEAVINGNETWORK notifications to every backpointer
// holder with replacement hints, the holders' slot repair, and the final
// REMOVELINK retraction; for a failure: the proactive purge every holder
// would otherwise perform lazily — racing every other victim's repair
// through the shared striped primitives (striped_links.h).
//
// §4.2 pointer rerouting happens *incrementally inside the wave*: around
// each holder's table mutations the holder's pointer hops are snapshotted
// and re-pushed through the directory's pointer maintenance given the
// stripe locks (ObjectDirectory::snapshot_pointer_hops /
// reroute_changed_pointers with a NodeLockTable), never deferred to the
// §6.5 republish backstop.  Two racing reroutes can strand a record that lands on a
// holder after that holder's snapshot was taken (impossible serially); the
// quiescent ObjectDirectory::repair_pointer_chains pass at the end of
// every wave closes exactly that window, so objects are locatable the
// moment the wave returns.
//
// Determinism contract (invariant-convergent, as for joins): victims are
// given and membership changes are applied serially before any thread
// starts, so same seed + any worker count produces identical membership;
// the replacement search is *complete* (local peers first, then a
// prefix-range probe of the live-id index standing in for the serial
// path's acknowledged multicast — same candidate set, same (distance, id)
// winner), so at quiescence a slot is occupied iff a live candidate
// exists, making the Property 1 occupancy fingerprint
// (fingerprint_occupancy) a function of membership alone.  Message
// orderings — and which of several equally good neighbors a slot holds —
// may differ run to run; convergence is asserted on invariants.
//
// Concurrency requirements: guarded reroutes write through the store
// backends, so waves racing other store users require
// StoreBackend::kSharded; the driver itself also relies on it when
// workers > 1 (per-holder snapshots race pointer deposits).
#pragma once

#include <cstdint>
#include <vector>

#include "src/tapestry/maintenance.h"

namespace tap {

class ThreadedRepairDriver {
 public:
  ThreadedRepairDriver(NodeRegistry& registry, Router& router,
                       ObjectDirectory& directory,
                       const TapestryParams& params);

  /// Voluntary departure (§5.1) of every victim, fanned out over `workers`
  /// real threads (0 = hardware concurrency).  Serial preamble: withdraw
  /// the victims' replicas, mark all victims dead (so hints and holder
  /// lists never name a co-departing node), capture per-victim hint and
  /// holder lists.  Parallel phase: per-victim holder repair with in-wave
  /// rerouting, then REMOVELINK.  Ends with a threaded sweep plus the
  /// quiescent chain-repair pass.
  void run_leave(const std::vector<NodeId>& victims, std::size_t workers,
                 Trace* trace);

  /// Fail-stop (§5.2) of every victim followed by the full repair a lazy
  /// system would perform over time: all victims are marked dead serially,
  /// then every backpointer holder of each victim is purged in parallel
  /// (slot removal, replacement hunt, in-wave reroute), then the threaded
  /// sweep restores Property 1 and the chain-repair pass restores
  /// locatability — no republish involved.
  void run_fail(const std::vector<NodeId>& victims, std::size_t workers,
                Trace* trace);

  /// The heartbeat sweep (§5.2, §6.5) on real threads: every live node
  /// probes its table members and purges corpses, then empty slots hunt
  /// replacements via the prefix-range index; rounds repeat until nothing
  /// changes.  Requires membership quiescence (no joins/deaths during the
  /// sweep); racing guarded publishes/queries are fine.
  void run_sweep(std::size_t workers, Trace* trace);

 private:
  struct Session {
    NodeId victim{};
    /// Per level: the leaver's replacement hints (live secondaries of its
    /// own-digit slot) and the live backpointer holders to notify.
    std::vector<std::vector<NodeId>> hints;
    std::vector<std::vector<NodeId>> holders;
    Trace trace{};
  };

  void leave_one(Session& s);
  void fail_one(Session& s);
  /// purge_dead_neighbor under the stripe discipline, reroute included.
  void purge_holder(TapestryNode& at, const NodeId& dead, Trace* trace);
  /// Complete replacement search: level-`level` contacts first, then the
  /// prefix-range probe over the sorted live-id index (`live_values_`).
  std::optional<NodeId> find_replacement(TapestryNode& at, unsigned level,
                                         unsigned digit, Trace* trace);
  /// Rebuilds the sorted live-id index; call at each run's preamble (the
  /// live set is fixed for the duration of a wave).
  void index_live_nodes();
  /// One probe-and-fill pass for one node; true when anything changed.
  bool sweep_node(TapestryNode& n, Trace* trace);
  void finish_wave(std::size_t workers, Trace* trace,
                   std::vector<Session>* sessions);

  NodeRegistry& reg_;
  Router& router_;
  ObjectDirectory& dir_;
  const TapestryParams& params_;
  const NodeLockTable& locks_;
  std::vector<std::uint64_t> live_values_;  ///< sorted live ids (preamble)
};

}  // namespace tap
