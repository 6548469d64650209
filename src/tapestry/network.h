// Network: facade over the Tapestry overlay simulator's four subsystems.
//
//   NodeRegistry      node storage, id index, liveness, distances/accounting
//   Router            surrogate routing (§2.3) + acknowledged multicast (§4.1)
//   ObjectDirectory   publish/locate/unpublish (§2.2), pointer reroute (§4.2),
//                     soft state (§6.5)
//   MaintenanceEngine join/leave/fail/heartbeat (§3-§5), table coherence,
//                     continual optimization (§6.4), static oracle builder
//
// In a deployment each public method below is an RPC handler (or a chain of
// them) running *on* the named nodes; here the subsystems are layers of one
// simulator object so costs can be accounted and invariants checked, but
// every inter-node touch goes through Trace::hop with the metric distance
// between the endpoints, and no algorithm ever reads state its real
// counterpart could not.  The exceptions — oracle accessors used only by
// tests and benchmark ground truth — are grouped at the bottom and named
// accordingly.
//
// Method -> paper map:
//   route_to_root / route_step   §2.3 surrogate routing (both variants)
//   publish / locate / unpublish §2.2 object publication and location
//   multicast                    §4.1 acknowledged multicast (Figure 8)
//   join / join_via              §4   node insertion (Figure 7) using the
//                                §3   nearest-neighbor algorithm (Figure 4)
//   leave                        §5.1 voluntary delete (Figure 12)
//   fail + lazy repair           §5.2 involuntary delete
//   optimize_pointer / delete_backward  §4.2 (Figure 9)
//   republish_all / expire_pointers     §6.5 soft state
//   relocate / optimize_*        §6.4 continual optimization
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/metric/metric_space.h"
#include "src/sim/event_queue.h"
#include "src/sim/trace.h"
#include "src/tapestry/maintenance.h"
#include "src/tapestry/node.h"
#include "src/tapestry/object_directory.h"
#include "src/tapestry/params.h"
#include "src/tapestry/registry.h"
#include "src/tapestry/route_types.h"
#include "src/tapestry/router.h"

namespace tap {

class Network {
 public:
  /// The space determines message costs; nodes join at locations within it.
  /// All randomness (salts, root choice, id generation) flows from `seed`.
  Network(const MetricSpace& space, TapestryParams params,
          std::uint64_t seed = 1);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // ------------------------------------------------------------------
  // Subsystems.  The facade methods below cover the common surface; the
  // coordinators (ParallelJoinCoordinator, LocalityManager) and tests that
  // need a layer's full interface reach it here.
  // ------------------------------------------------------------------
  [[nodiscard]] NodeRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] const NodeRegistry& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] Router& router() noexcept { return router_; }
  [[nodiscard]] const Router& router() const noexcept { return router_; }
  [[nodiscard]] ObjectDirectory& directory() noexcept { return directory_; }
  [[nodiscard]] const ObjectDirectory& directory() const noexcept {
    return directory_;
  }
  [[nodiscard]] MaintenanceEngine& maintenance() noexcept {
    return maintenance_;
  }
  [[nodiscard]] const MaintenanceEngine& maintenance() const noexcept {
    return maintenance_;
  }
  /// The wire layer every inter-node message crosses, selected by
  /// TapestryParams::transport and bound into each subsystem at
  /// construction (see docs/transport.md).
  [[nodiscard]] Transport& transport() noexcept { return *transport_; }
  [[nodiscard]] const Transport& transport() const noexcept {
    return *transport_;
  }

  // ------------------------------------------------------------------
  // Membership
  // ------------------------------------------------------------------

  /// Creates the first node of the overlay.  `id` defaults to random.
  NodeId bootstrap(Location loc, std::optional<NodeId> id = std::nullopt) {
    return maintenance_.bootstrap(loc, id);
  }

  /// Full dynamic insertion (Figure 7) via a uniformly random live gateway.
  NodeId join(Location loc, std::optional<NodeId> id = std::nullopt,
              Trace* trace = nullptr) {
    return maintenance_.join(loc, id, trace);
  }

  /// Full dynamic insertion via a specific gateway node.
  NodeId join_via(NodeId gateway, Location loc,
                  std::optional<NodeId> id = std::nullopt,
                  Trace* trace = nullptr) {
    return maintenance_.join_via(gateway, loc, id, trace);
  }

  /// Thread-parallel dynamic insertion: the whole batch of §4.4 joins runs
  /// on real `sim/thread_pool` workers racing each other through per-node
  /// stripe locks (see MaintenanceEngine::join_bulk for the determinism
  /// contract).  Returns the new node ids in request order; `trace`, if
  /// given, absorbs every join's messages.
  std::vector<NodeId> join_bulk(const std::vector<JoinRequest>& requests,
                                std::size_t workers = 0,
                                Trace* trace = nullptr) {
    return maintenance_.join_bulk(requests, workers, trace);
  }

  /// Voluntary departure (§5.1): notifies backpointer holders with
  /// replacement hints, re-roots object pointers, then disconnects.
  void leave(NodeId node, Trace* trace = nullptr) {
    maintenance_.leave(node, trace);
  }

  /// Involuntary fail-stop (§5.2): the node simply stops responding; the
  /// rest of the network repairs lazily as it discovers the corpse.
  void fail(NodeId node) { maintenance_.fail(node); }

  /// Thread-parallel voluntary departure: every victim's §5.1 protocol
  /// runs on real `sim/thread_pool` workers under the per-node stripe
  /// locks, §4.2 rerouting included inside the wave (see
  /// MaintenanceEngine::leave_bulk for the determinism contract).  This
  /// wave, fail_and_repair_bulk and heartbeat_sweep_bulk write node
  /// stores from every worker: on more than one (0 = hardware
  /// concurrency counts as more) they refuse, with CheckError, any store
  /// backend but kSharded.
  void leave_bulk(const std::vector<NodeId>& victims, std::size_t workers = 0,
                  Trace* trace = nullptr) {
    maintenance_.leave_bulk(victims, workers, trace);
  }

  /// Thread-parallel fail-stop plus eager §5.2 repair: victims stop at
  /// once, their holders purge them in parallel (each refill a complete
  /// search, so a mesh that held Property 1 keeps it), and objects stay
  /// locatable without a republish.  Like leave_bulk it repairs only what
  /// it breaks and sends no heartbeat: a node that died by a plain fail(),
  /// and a hole no repair opened, wait for the next heartbeat sweep.
  void fail_and_repair_bulk(const std::vector<NodeId>& victims,
                            std::size_t workers = 0, Trace* trace = nullptr) {
    maintenance_.fail_and_repair_bulk(victims, workers, trace);
  }

  /// heartbeat_sweep across `workers` real threads (membership must be
  /// quiescent; guarded store racers are fine), then the chain repair; the
  /// one wave that heartbeats, purges corpses nobody announced and fills
  /// holes no repair opened.
  void heartbeat_sweep_bulk(std::size_t workers = 0, Trace* trace = nullptr) {
    maintenance_.heartbeat_sweep_bulk(workers, trace);
  }

  // ------------------------------------------------------------------
  // Fault injection: network partition
  // ------------------------------------------------------------------

  /// Splits the overlay into side A (everyone else) and side B (`side_b`).
  /// Protocol traffic stops crossing the cut; tables and pointer records
  /// survive it untouched (see NodeRegistry::set_partition).
  void set_partition(const std::vector<NodeId>& side_b) {
    registry_.set_partition(side_b);
  }
  /// Heals the cut: all live nodes can talk again instantly; stale
  /// side-local pointer state decays via the §6.5 soft-state machinery.
  void heal_partition() { registry_.clear_partition(); }
  [[nodiscard]] bool partition_active() const noexcept {
    return registry_.partition_active();
  }

  // ------------------------------------------------------------------
  // Objects
  // ------------------------------------------------------------------

  /// Publishes `guid` stored at `server`: routes a publish message toward
  /// each root in the root set, depositing an object pointer at every hop
  /// (§2.2, Figure 2).  Re-publishing refreshes soft state.
  void publish(NodeId server, const Guid& guid, Trace* trace = nullptr) {
    directory_.publish(server, guid, trace);
  }

  /// Batched publish for bulk overlay construction: publish paths walked
  /// concurrently through the Router's mutation-free read path, deposits
  /// drained per registry shard (see ObjectDirectory::publish_batch).
  /// `guarded` takes the per-node stripe locks on each routing decision —
  /// required when the batch deliberately races a join_bulk wave.
  void publish_batch(const std::vector<ObjectDirectory::PublishRequest>& batch,
                     std::size_t workers = 0, Trace* trace = nullptr,
                     bool guarded = false) {
    directory_.publish_batch(batch, workers, trace, guarded);
  }

  /// Removes the replica mapping (guid -> server) along its root paths.
  void unpublish(NodeId server, const Guid& guid, Trace* trace = nullptr) {
    directory_.unpublish(server, guid, trace);
  }

  /// Routes a query from `client` toward a (randomly chosen) root until an
  /// object pointer is found, then on to the closest replica (§2.2,
  /// Figure 3).
  LocateResult locate(NodeId client, const Guid& guid, Trace* trace = nullptr) {
    return directory_.locate(client, guid, trace);
  }

  /// Soft state (§6.5): re-publishes every (guid, server) pair currently
  /// registered, refreshing pointer expiry deadlines.
  void republish_all(Trace* trace = nullptr) {
    directory_.republish_all(trace);
  }

  /// Republishes the objects stored at one server (its periodic timer).
  void republish_server(NodeId server, Trace* trace = nullptr) {
    directory_.republish_server(server, trace);
  }

  /// Drops expired pointers everywhere (driven by the event clock).
  /// The per-node sweeps run on `workers` threads through sim/thread_pool
  /// (0 = hardware concurrency; requires quiescence, like every
  /// whole-network pass).
  void expire_pointers(std::size_t workers = 1) {
    directory_.expire_pointers(workers);
  }

  /// Flushes every node's store and writes `dir`/manifest: clock, live
  /// membership, replica registry (see ObjectDirectory::checkpoint).
  /// Meaningful with StoreBackend::kPersistent — the basis of the
  /// kill-and-resume experiments.
  void checkpoint_stores(const std::string& dir) {
    directory_.checkpoint(dir);
  }
  /// Reloads the replica registry from `dir`/manifest (membership must
  /// already be rebuilt); returns the checkpoint clock.
  double restore_directory(const std::string& dir) {
    return directory_.restore(dir);
  }

  /// Soft-state heartbeat maintenance (§5.2, §6.5): every node hears from
  /// its live table members, probes and purges the silent ones (corpses),
  /// then one fill pass refills every empty slot a live node fits.
  void heartbeat_sweep(Trace* trace = nullptr) {
    maintenance_.heartbeat_sweep(trace);
  }

  // ------------------------------------------------------------------
  // Event-driven execution (per-hop on the EventQueue)
  // ------------------------------------------------------------------

  /// Event-driven publish: the replica registers immediately, the pointer
  /// deposits walk each root path one hop per event (delay = link distance
  /// * params.hop_delay_scale), interleaving with everything else queued.
  void publish_async(NodeId server, const Guid& guid, Trace* trace = nullptr,
                     ObjectDirectory::PublishCallback done = nullptr) {
    directory_.publish_async(server, guid, trace, std::move(done));
  }

  /// Event-driven locate: one routing decision per event; `done` fires at
  /// completion with the same LocateResult the synchronous path returns.
  void locate_async(NodeId client, const Guid& guid,
                    ObjectDirectory::LocateCallback done,
                    Trace* trace = nullptr) {
    directory_.locate_async(client, guid, std::move(done), trace);
  }

  /// Publishes/locates currently in flight on the event queue.
  [[nodiscard]] std::size_t async_in_flight() const noexcept {
    return directory_.async_in_flight();
  }

  /// Soft-state timers (§6.5) as recurring events: event-driven republish
  /// of every live replica each `republish_every`, expiry sweep each
  /// `expiry_every` (zero disables either).  The timers hold `trace` until
  /// stop_soft_state(): it must outlive them (unlike the one-shot APIs,
  /// where the pointer only lives for the call).
  void start_soft_state(double republish_every, double expiry_every,
                        Trace* trace = nullptr) {
    directory_.start_soft_state(republish_every, expiry_every, trace);
  }
  void stop_soft_state() { directory_.stop_soft_state(); }

  /// Periodic heartbeat sweep (§5.2) as a recurring event.  `trace` must
  /// outlive the timer (see start_soft_state).
  void start_heartbeats(double every, Trace* trace = nullptr) {
    maintenance_.start_heartbeats(every, trace);
  }
  void stop_heartbeats() { maintenance_.stop_heartbeats(); }

  // ------------------------------------------------------------------
  // Routing primitives
  // ------------------------------------------------------------------

  /// Surrogate-routes from `from` toward `target` (a GUID or node-ID) and
  /// returns the root reached (§2.3).  Repairs dead links lazily en route.
  RouteResult route_to_root(NodeId from, const Id& target,
                            Trace* trace = nullptr) {
    return router_.route_to_root(from, target, trace);
  }

  /// One routing decision at node `at` given cursor `state`.  Pure peek —
  /// never repairs; dead primaries are skipped in favor of live members.
  [[nodiscard]] std::optional<NodeId> route_step_peek(const NodeId& at,
                                                      const Id& target,
                                                      RouteState& state) const {
    return router_.route_step_peek(at, target, state);
  }

  /// The unique surrogate root for `target` (Theorem 2), computed from an
  /// arbitrary start without cost accounting.  Oracle-flavored convenience
  /// used by tests and the general-metric comparisons.
  [[nodiscard]] NodeId surrogate_root(const Id& target) const {
    return router_.surrogate_root(target);
  }

  /// Acknowledged multicast (Figure 8): applies `visit` exactly once on
  /// every live node whose ID starts with the first `prefix_len` digits of
  /// `pattern`.  `start` must carry that prefix.  Nodes in `exclude` are
  /// neither forwarded to nor visited.
  MulticastStats multicast(NodeId start, const Id& pattern,
                           unsigned prefix_len,
                           const std::function<void(NodeId)>& visit,
                           Trace* trace = nullptr,
                           const std::vector<NodeId>& exclude = {}) {
    return router_.multicast(start, pattern, prefix_len, visit, trace,
                             exclude);
  }

  // ------------------------------------------------------------------
  // Continual optimization (§6.4)
  // ------------------------------------------------------------------

  /// Moves a node to a new underlay location (network drift model).
  /// Tables are NOT fixed up — that is what the heuristics below are for.
  void relocate(NodeId node, Location loc) { maintenance_.relocate(node, loc); }

  /// Heuristic 1: re-rank every neighbor set of `node` by current distance
  /// (re-choosing primaries among the R links).
  void optimize_primaries(NodeId node, Trace* trace = nullptr) {
    maintenance_.optimize_primaries(node, trace);
  }

  /// Heuristic 4: ask each level-l neighbor for its level-l row and adopt
  /// closer members (the gossip scheme of §6.4 / Pastry / Tapestry [37]).
  void optimize_gossip(NodeId node, Trace* trace = nullptr) {
    maintenance_.optimize_gossip(node, trace);
  }

  /// Heuristic 2: rerun the full nearest-neighbor table construction for
  /// an existing node.
  void rebuild_neighbor_table(NodeId node, Trace* trace = nullptr) {
    maintenance_.rebuild_neighbor_table(node, trace);
  }

  // ------------------------------------------------------------------
  // Introspection
  // ------------------------------------------------------------------

  [[nodiscard]] std::size_t size() const noexcept {
    return registry_.live_count();
  }
  [[nodiscard]] bool contains(const NodeId& id) const {
    return registry_.is_live(id);
  }
  [[nodiscard]] std::vector<NodeId> node_ids() const {  ///< live nodes
    return registry_.node_ids();
  }
  /// node_ids() without the copy; see NodeRegistry::live_ids.
  [[nodiscard]] const std::vector<NodeId>& live_ids() const noexcept {
    return registry_.live_ids();
  }
  [[nodiscard]] TapestryNode& node(const NodeId& id) {
    return registry_.checked(id);
  }
  [[nodiscard]] const TapestryNode& node(const NodeId& id) const {
    return registry_.checked(id);
  }
  [[nodiscard]] double distance(const NodeId& a, const NodeId& b) const {
    return registry_.distance(a, b);
  }
  [[nodiscard]] const MetricSpace& space() const noexcept { return space_; }
  [[nodiscard]] const TapestryParams& params() const noexcept {
    return params_;
  }
  [[nodiscard]] EventQueue& events() noexcept { return events_; }
  [[nodiscard]] const EventQueue& events() const noexcept { return events_; }
  [[nodiscard]] double now() const noexcept { return events_.now(); }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }
  [[nodiscard]] NodeId fresh_node_id() {  ///< random, unused id
    return registry_.fresh_node_id();
  }

  /// Total routing-table links over live nodes (Table 1 "space").
  [[nodiscard]] std::size_t total_table_entries() const {
    return registry_.total_table_entries();
  }
  /// Total object-pointer records over live nodes.
  [[nodiscard]] std::size_t total_object_pointers() const {
    return registry_.total_object_pointers();
  }

  // ------------------------------------------------------------------
  // Ground truth / oracle accessors (tests and benches only)
  // ------------------------------------------------------------------

  /// Registered replica servers of a (base) guid, live ones only.
  [[nodiscard]] std::vector<NodeId> servers_of(const Guid& guid) const {
    return directory_.servers_of(guid);
  }
  /// All registered (guid, server) pairs, including dead servers.
  [[nodiscard]] std::vector<std::pair<Guid, NodeId>> published() const {
    return directory_.published();
  }
  /// Distance from client to the nearest live replica (stretch denominator).
  [[nodiscard]] double distance_to_nearest_replica(const NodeId& client,
                                                   const Guid& guid) const {
    return directory_.distance_to_nearest_replica(client, guid);
  }

  /// Oracle membership: registers a node without running the join
  /// protocol.  Pair with rebuild_static_tables() — this is the paper's
  /// static PRR preprocessing, used as ground truth by tests.
  NodeId insert_static(Location loc, std::optional<NodeId> id = std::nullopt);
  /// Bulk oracle membership: draws one fresh id per location (serially,
  /// so the id sequence matches repeated insert_static calls), then
  /// registers the whole batch with node construction fanned out across
  /// `workers` threads.  Returns the ids in location order.
  std::vector<NodeId> insert_static_bulk(const std::vector<Location>& locs,
                                         std::size_t workers = 0);
  /// Rebuilds every live node's table from global knowledge (Property 1+2
  /// by construction); `workers` > 1 fans the per-node work out with a
  /// bit-identical result (see MaintenanceEngine::rebuild_static_tables).
  void rebuild_static_tables(std::size_t workers = 1) {
    maintenance_.rebuild_static_tables(workers);
  }

  // ------------------------------------------------------------------
  // Invariant checks (throw tap::CheckError on violation)
  // ------------------------------------------------------------------

  /// Property 1 (consistency): an empty slot implies no live node with
  /// that prefix+digit exists.
  void check_property1() const;
  /// Property 2 (locality): fraction of non-empty slots whose primary is
  /// the true closest live node with that prefix+digit (1.0 = perfect).
  [[nodiscard]] double property2_quality() const;
  /// Property 4: every node on each (server -> root) publish path holds
  /// the pointer.  Non-const because walking routes may prune dead links.
  void check_property4() { directory_.check_property4(); }
  /// Forward links and backpointers mirror each other exactly.
  void check_backpointer_symmetry() const;

 private:
  const MetricSpace& space_;
  TapestryParams params_;
  Rng rng_;
  EventQueue events_;

  // Construction order matters: each layer takes references to the ones
  // above it; the router's repair hook and the transport seam are bound
  // in the constructor body.
  std::unique_ptr<Transport> transport_;
  NodeRegistry registry_;
  Router router_;
  ObjectDirectory directory_;
  MaintenanceEngine maintenance_;
};

}  // namespace tap
