// Router: localized surrogate routing (§2.3), both published variants, and
// the acknowledged multicast primitive (§4.1) built on the routing mesh.
//
// The router reads and (for lazy repair, §5.2) mutates routing tables but
// owns no state of its own beyond references: every routing decision is a
// function of the current node's table, exactly as in a deployment.  When a
// mutating walk trips over a corpse it hands the repair to the
// RepairHandler (implemented by MaintenanceEngine) — routing decides, the
// maintenance layer fixes; the narrow interface keeps the dependency cycle
// routing -> repair -> pointer-reroute -> routing explicit and one-way per
// layer.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_set>
#include <vector>

#include "src/tapestry/registry.h"
#include "src/tapestry/route_types.h"
#include "src/tapestry/transport.h"

namespace tap {

/// What the Router needs from the maintenance layer: purge one discovered
/// corpse from one node's table (promoting secondaries, hunting slot
/// replacements, re-routing affected object pointers).
class RepairHandler {
 public:
  virtual ~RepairHandler() = default;
  virtual void purge_dead_neighbor(TapestryNode& at, NodeId dead,
                                   Trace* trace) = 0;
};

class Router {
 public:
  /// Node-ids to route around, e.g. "as if the new node had not yet
  /// entered the network" during insertion (Figure 10).
  using ExcludeSet = std::unordered_set<std::uint64_t>;

  Router(NodeRegistry& registry, const TapestryParams& params);

  /// Wires the lazy-repair callback; must be called before any mutating
  /// walk can encounter a corpse.
  void bind_repair(RepairHandler* repair) noexcept { repair_ = repair; }

  /// Wires the transport every hop and multicast edge travels through;
  /// Network binds the overlay's at construction.
  void bind_transport(Transport* transport) noexcept {
    transport_ = transport;
  }

  /// Scans row `level` of `at` for the slot serving `desired` under the
  /// configured routing mode (§2.3).  A slot counts as filled when some
  /// member is outside `exclude`, is reachable across an active partition
  /// and, with `live_only`, is alive.  Returns the chosen digit, or nullopt
  /// if no slot of the row is filled; `member` (if given) receives a copy
  /// of the slot's first such member — its usable primary — and is left
  /// as it was when no slot is filled.  Driven by the row's occupancy
  /// bitmask: empty slots are skipped with O(1) bit scans, and each
  /// occupied slot considered has its members read once, only when a
  /// filter or `member` asks for them.
  [[nodiscard]] std::optional<unsigned> select_slot(
      const TapestryNode& at, unsigned level, unsigned desired,
      bool& past_hole, const ExcludeSet* exclude = nullptr,
      bool live_only = false, NodeId* member = nullptr) const;

  /// Mutating route step with lazy repair.
  std::optional<NodeId> route_step(TapestryNode& at, const Id& target,
                                   RouteState& state, Trace* trace,
                                   const ExcludeSet* exclude = nullptr);

  /// One routing decision at node `at` given cursor `state`: returns the
  /// next (different) node and advances the cursor past any self-matching
  /// levels, or nullopt when `at` is the root.  Pure peek — select_slot
  /// with `live_only`, never repairing; dead primaries are skipped in
  /// favor of live members.  With `locks` the decision runs under `at`'s
  /// stripe, which makes it safe against concurrent routing-table mutation
  /// (a thread-parallel wave).
  [[nodiscard]] std::optional<NodeId> route_step_peek(
      const TapestryNode& at, const Id& target, RouteState& state,
      const NodeLockTable* locks = nullptr) const;
  /// The same step for a caller holding only the node's id: one registry
  /// lookup, then the step above.
  [[nodiscard]] std::optional<NodeId> route_step_peek(
      const NodeId& at, const Id& target, RouteState& state,
      const NodeLockTable* locks = nullptr) const {
    return route_step_peek(reg_.checked(at), target, state, locks);
  }

  /// Sends one routing hop from `from` to `to` as a `kind` wire message
  /// carrying the cursor, books it against `trace`, and continues `state`
  /// from the delivered copy (what the receiver observed).
  void forward(MessageKind kind, const TapestryNode& from,
               const TapestryNode& to, const Id& target, RouteState& state,
               Trace* trace) const;

  /// Surrogate-routes from `from` toward `target` (a GUID or node-ID) and
  /// returns the root reached (§2.3).  Repairs dead links lazily en route.
  RouteResult route_to_root(NodeId from, const Id& target,
                            Trace* trace = nullptr);

  /// Mutation-free surrogate route built on route_step_peek: walks the
  /// steady-state path (dead members skipped, nothing repaired) with the
  /// same cost accounting as route_to_root.  Without `locks` no lock is
  /// taken: any number of threads may walk a quiescent mesh (concurrent
  /// builders, batched publishes).  With `locks` (the registry's
  /// NodeLockTable) each routing decision runs under the current node's
  /// stripe, so the walk is safe against concurrent routing-table mutation
  /// (a thread-parallel join wave).  Exactly one stripe is held at a time —
  /// the per-hop granularity a real deployment has, where each hop
  /// observes whatever table state the contacted node holds right then.
  /// On a quiescent mesh both forms return the same result.
  RouteResult route_to_root_peek(NodeId from, const Id& target,
                                 Trace* trace = nullptr,
                                 const NodeLockTable* locks = nullptr) const;

  /// The unique surrogate root for `target` (Theorem 2), computed from an
  /// arbitrary start without cost accounting.  Oracle-flavored convenience
  /// used by tests and the general-metric comparisons.
  [[nodiscard]] NodeId surrogate_root(const Id& target) const;

  /// Acknowledged multicast (Figure 8): applies `visit` exactly once on
  /// every live node whose ID starts with the first `prefix_len` digits of
  /// `pattern`.  `start` must carry that prefix.  Nodes in `exclude` are
  /// neither forwarded to nor visited.
  MulticastStats multicast(NodeId start, const Id& pattern,
                           unsigned prefix_len,
                           const std::function<void(NodeId)>& visit,
                           Trace* trace = nullptr,
                           const std::vector<NodeId>& exclude = {});

 private:
  /// The one walk loop behind route_to_root (repairing step) and
  /// route_to_root_peek (peek step, stripe-locked with `locks`):
  /// `next_hop(node, state)` makes each routing decision; the loop owns
  /// the hop message and the hop / latency / surrogate-hop / path
  /// accounting.
  template <typename NextHop>
  RouteResult walk_to_root(NodeId from, const Id& target, Trace* trace,
                           NextHop&& next_hop) const;

  /// First member of slot (level, j) of `at` passing select_slot's
  /// filter, or an invalid (default) id when none does.  Members are
  /// distance-sorted, so this is the slot's usable primary.  A plain
  /// 16-byte NodeId, not an optional, so it returns in registers.
  [[nodiscard]] NodeId usable_member(const TapestryNode& at, unsigned level,
                                     unsigned j, const ExcludeSet* exclude,
                                     bool live_only) const;

  /// Live primary of slot (level, digit) with lazy repair, starting from
  /// its usable member `prim` (invalid when the slot has none): prunes
  /// dead members it trips over (§5.2)
  /// and re-reads the same slot after each purge; nullopt once the slot
  /// has no usable member left.  Private so the mutating-repair entry
  /// points stay at route_step / route_to_root, which re-select after a
  /// slot empties.
  std::optional<NodeId> live_primary_repair(TapestryNode& at, unsigned level,
                                            unsigned digit, NodeId prim,
                                            Trace* trace,
                                            const ExcludeSet* exclude);

  NodeRegistry& reg_;
  const TapestryParams& params_;
  RepairHandler* repair_ = nullptr;
  Transport* transport_ = nullptr;
};

}  // namespace tap
