// ObjectDirectory: object publication, location and pointer maintenance.
//
// Covers the paper's object layer: publish / locate / unpublish (§2.2),
// object-pointer redistribution when the routing mesh changes (§4.2,
// Figure 9), and soft-state republish/expiry (§6.5).  It also owns the
// ground-truth replica registry (base guid -> servers) that drives
// republish_all and the test oracles; the routing algorithms never read it.
//
// The directory routes through the Router (so publishes and queries pay
// real routing costs and trigger the same lazy repair) and stores pointers
// in the per-node ObjectStores held by the registry.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/tapestry/hotspot.h"
#include "src/tapestry/registry.h"
#include "src/tapestry/router.h"

namespace tap {

class QuorumReplicator;

class ObjectDirectory {
 public:
  /// A pointer record paired with its next hop at snapshot time; used to
  /// detect path changes around table mutations (§4.2).
  struct PendingReroute {
    Guid guid{};
    PointerRecord record{};
    std::optional<NodeId> next_hop{};  ///< hop at snapshot time
  };

  ObjectDirectory(NodeRegistry& registry, Router& router,
                  const TapestryParams& params, EventQueue& events, Rng& rng);
  ~ObjectDirectory();  // out of line: replicator_ is incomplete here

  /// Wires the transport all pointer traffic (publish/locate/unpublish
  /// deposits, §4.2 reroutes, quorum replica RPCs) travels through and
  /// forwards it to the replicator when one exists.  Network binds the
  /// overlay's at construction.
  void bind_transport(Transport* transport) noexcept;

  // --- publication and location (§2.2) ---
  void publish(NodeId server, const Guid& guid, Trace* trace = nullptr);
  void unpublish(NodeId server, const Guid& guid, Trace* trace = nullptr);
  LocateResult locate(NodeId client, const Guid& guid, Trace* trace = nullptr);

  /// One replica registration for publish_batch.
  struct PublishRequest {
    NodeId server{};
    Guid guid{};
  };
  /// Batched publish for bulk overlay construction.  Registers every
  /// replica up front, then deposits the pointers in two concurrent
  /// phases drained through sim/thread_pool: the publish paths are walked
  /// with the Router's mutation-free peek (grouped by the salted guid's
  /// leading digit — the root region each path converges into), and the
  /// collected deposits land per node group, each group applying its
  /// deposits in batch order.  On the replicated backends a last, serial
  /// phase mirrors each root deposit to its quorum holders in batch
  /// order.  The result is identical to calling publish() per request on
  /// a quiescent, fully-live mesh (the bulk-build setting): stores,
  /// holder sets and mirrors, replica registry and message counts match
  /// exactly; trace latency matches up to floating-point summation order.
  /// The §2.4 secondary-deposit variant falls back to the serial loop.
  void publish_batch(const std::vector<PublishRequest>& batch,
                     std::size_t workers = 0, Trace* trace = nullptr);

  // --- event-driven publication and location ---
  // The same operation record and step function as publish/locate, but
  // each step is its own EventQueue event, delayed by the hop's metric
  // distance scaled by params.hop_delay_scale, so repairs, republishes and
  // expiry genuinely interleave with in-flight operations (the execution
  // model §6.5's churn results assume).  One operation's costs land in its
  // own Trace, absorbed into `trace` at completion, so per-query
  // hop/latency figures stay exact even when many operations overlap.
  using LocateCallback = std::function<void(const LocateResult&)>;
  using PublishCallback = std::function<void()>;

  /// Event-driven publish.  The replica registration is immediate (the
  /// server stores the object from now on); the pointer deposits walk each
  /// salted root path hop by hop.  A path whose carrier node dies mid-walk
  /// aborts quietly — soft-state republish is the backstop, as in §6.5.
  void publish_async(NodeId server, const Guid& guid, Trace* trace = nullptr,
                     PublishCallback done = nullptr);

  /// Event-driven locate: one routing decision per event.  The query
  /// observes whatever directory state holds when each hop fires.  A query
  /// stranded on a node that dies mid-flight loses that root attempt (and
  /// retries remaining roots under retry_all_roots, like the sync path).
  void locate_async(NodeId client, const Guid& guid, LocateCallback done,
                    Trace* trace = nullptr);

  /// Operations currently in flight on the event queue (tests/drivers use
  /// this to drain deterministically).
  [[nodiscard]] std::size_t async_in_flight() const noexcept {
    return in_flight_;
  }

  // --- soft state (§6.5) ---
  void republish_all(Trace* trace = nullptr);
  /// Sweeps expired mirrors from the live holders' replica areas, then
  /// expired pointers from every live node's store in registration order.
  /// Serial; requires quiescence, like every whole-network pass.
  void expire_pointers();

  // --- checkpoint / restore (persistent backend) ---
  /// Membership and replica-registry state a checkpoint records alongside
  /// the per-node store files; enough to rebuild an equivalent overlay.
  struct CheckpointManifest {
    double time = 0.0;  ///< simulated clock at checkpoint
    std::vector<std::pair<std::uint64_t, Location>> nodes;  ///< live (id, loc)
    std::vector<std::pair<std::uint64_t, std::uint64_t>>
        replicas;  ///< registered (guid, server) pairs, manifest order
  };

  /// Flushes every node store to disk and writes `dir`/manifest (atomic
  /// tmp + rename): the checkpoint clock, the live membership, and the
  /// ground-truth replica registry.  Pairs with restore(); meaningful for
  /// the persistent backend (other backends flush nothing but the
  /// manifest still lets tests audit published() state).
  void checkpoint(const std::string& dir);
  /// Loads the replica registry from `dir`/manifest into this directory
  /// (replacing it) and returns the checkpoint clock.  The caller must
  /// already have rebuilt the membership (see read_manifest) so that the
  /// per-node persistent stores recovered their records at construction —
  /// and should then advance the event clock to the returned time
  /// (events().run_until): recovered PointerRecord deadlines are absolute,
  /// so resuming finite-TTL soft state at clock 0 would let every pointer
  /// outlive its deadline by the whole checkpoint time.
  double restore(const std::string& dir);
  /// Parses `dir`/manifest: checkpoint clock, live membership, replica
  /// registry.  The single reader of the format — restore() consumes it.
  /// Throws CheckError on any line checkpoint() does not write: a field
  /// that does not parse whole, a clock that is not finite and >= 0, a
  /// line without its newline, or an unknown tag.
  [[nodiscard]] static CheckpointManifest read_manifest(
      const std::string& dir);

  /// Starts the §6.5 soft-state timers as recurring events: every
  /// `republish_every`, each registered live replica re-publishes
  /// (event-driven, so refresh traffic interleaves with queries); every
  /// `expiry_every`, expired pointers are swept.  Zero disables either
  /// timer.  Restarting replaces any running timers.  The recurring
  /// events hold `trace` until stop_soft_state(): it must outlive them.
  void start_soft_state(double republish_every, double expiry_every,
                        Trace* trace = nullptr);
  void stop_soft_state();

  // --- pointer maintenance (§4.2, Figure 9) ---
  // Serial, while no thread changes a routing table.  A thread-parallel
  // wave snapshots the nodes it may re-link before its threads start and
  // re-routes them after they join (MaintenanceEngine::run_wave).
  /// Snapshot the records of `at` whose next hop will change if tables
  /// change; used around table mutations.
  [[nodiscard]] std::vector<PendingReroute> snapshot_pointer_hops(
      const TapestryNode& at) const;
  /// Re-push the affected records along the new paths (OPTIMIZEOBJECTPTRS).
  void reroute_changed_pointers(TapestryNode& at,
                                const std::vector<PendingReroute>& before,
                                Trace* trace);
  void optimize_pointer(TapestryNode& from, const Guid& guid,
                        const PointerRecord& record, Trace* trace);
  /// `notifier` is the converge node that discovered the outdated branch:
  /// it originates the first delete message of the backward chain (§4.2).
  void delete_backward(const NodeId& notifier, const NodeId& start,
                       const Guid& guid, const NodeId& server,
                       const NodeId& changed, Trace* trace);
  [[nodiscard]] std::optional<NodeId> pointer_next_hop(
      const TapestryNode& at, const Guid& guid,
      const PointerRecord& record) const;

  // --- ground truth / oracle accessors (tests and benches only) ---
  /// Registered replica servers of a (base) guid, live ones only.
  [[nodiscard]] std::vector<NodeId> servers_of(const Guid& guid) const;
  /// All registered (guid, server) pairs, including dead servers.
  [[nodiscard]] std::vector<std::pair<Guid, NodeId>> published() const;
  /// Base guids whose replica registry lists `server` (dead or alive).
  [[nodiscard]] std::vector<Guid> guids_served_by(const NodeId& server) const;
  /// Distance from client to the nearest live replica (stretch denominator).
  [[nodiscard]] double distance_to_nearest_replica(const NodeId& client,
                                                   const Guid& guid) const;

  /// Property 4: every node on each (server -> root) publish path holds
  /// the pointer.  Non-const because walking routes may prune dead links.
  void check_property4();

  // --- locate cache (hotspot.h) ---
  /// The per-node locate cache (disabled when params.locate_cache_size is
  /// 0).  Both engines' locates consult it at every node of the walk before
  /// routing onward and repopulate it on success; every hit re-reads the
  /// remembered holder's store before resolving, so cached and uncached
  /// locates agree on found/not-found (see hotspot.h).
  [[nodiscard]] LocateCache& locate_cache() noexcept { return cache_; }
  [[nodiscard]] const LocateCache& locate_cache() const noexcept {
    return cache_;
  }
  /// The death seam: MaintenanceEngine calls it from fail() (so from
  /// leave() too).  Drops the dead node's own locate-cache LRU; a hint
  /// elsewhere naming it dies when read, and queries already in flight
  /// toward the corpse fail holder verification and fall back to the
  /// walk.  The QuorumReplicator (when the replicated backend is active)
  /// re-replicates every holder set the dead node belonged to.
  /// HotspotManager needs no call: it drops a dead replica host where it
  /// next reads the object's replica list.
  void on_node_death(const NodeId& id);

  /// Quorum replication coordinator; nullptr unless params.store_backend
  /// is kReplicated / kReplicatedPersistent (tests and benches introspect
  /// holder sets, replica areas and stats through it).
  [[nodiscard]] QuorumReplicator* replicator() noexcept {
    return replicator_.get();
  }

 private:
  // One publish / locate in flight and its step functions, which both
  // engines drive (object_directory.cc, "Operation records").  Each step
  // returns the delay until the next one.
  struct PublishOp;
  struct LocateOp;
  double next_publish_path(PublishOp& op);
  double publish_step(PublishOp& op);
  double start_locate(LocateOp& op, NodeId client, const Guid& guid,
                      Trace* sink);
  double next_locate_attempt(LocateOp& op);
  double locate_step(LocateOp& op);
  double resolve_locate(LocateOp& op, TapestryNode& holder,
                        const PointerRecord& rec, const Guid& via);
  void finish_locate(LocateOp& op);
  /// Event engine: schedule the next step `delay` from now, or complete.
  void drive_publish(const std::shared_ptr<PublishOp>& op, double delay);
  void drive_locate(const std::shared_ptr<LocateOp>& op, double delay);
  /// Synchronous engine: every root path of one replica, inline.
  void publish_paths(NodeId server, const Guid& guid, Trace* trace);

  void unpublish_one(TapestryNode& server, const Guid& salted, Trace* trace);
  /// The one pointer-carrying hop (publish and batch deposits, unpublish,
  /// §2.4 secondary deposits and withdrawals, §4.2 reroute): builds the
  /// message from `rec`, sends it, and returns the record as the receiver
  /// observed it.
  PointerRecord carry_pointer(MessageKind kind, const TapestryNode& from,
                              const TapestryNode& to, const Guid& target,
                              const PointerRecord& rec, Trace* trace) const;
  /// §2.4 PRR: the node a publish deposits on, an unpublish withdraws from
  /// and a locate probes for `member` of the slot `at` routes through
  /// toward `primary`; null for the primary, `at` itself, a corpse and a
  /// node across an active partition.
  TapestryNode* live_secondary(const TapestryNode& at, const NodeId& member,
                               const NodeId& primary) const;
  /// Ground-truth replica registry insert (no duplicates).
  void register_replica(const Guid& guid, const NodeId& server);
  /// Event-engine flight time of one message from `a` to `b`.
  double hop_delay(const TapestryNode& a, const TapestryNode& b) const;
  /// Picks the closest live replica among records; prunes dead-server
  /// records it trips over.  Returns nullopt when none is live.
  std::optional<PointerRecord> pick_live_replica(
      TapestryNode& holder, const Guid& target,
      const TapestryNode& relative_to);

  /// Fire-and-forget send for messages whose payload carries no fields
  /// the receiver continues from (probes, replies, bounces, cache jumps) —
  /// the kinds with onward-flowing payloads go through carry_pointer /
  /// Router::forward.
  void wire(MessageKind kind, const TapestryNode& src, const TapestryNode& dst,
            const Id& target, Trace* trace) {
    transport_->send(make_message(kind, src.id(), dst.id(), target),
                     reg_.hop_dist(trace, src, dst), trace);
  }

  NodeRegistry& reg_;
  Router& router_;
  const TapestryParams& params_;
  EventQueue& events_;
  Rng& rng_;

  // Ground-truth replica registry: base guid -> servers.
  std::unordered_map<Guid, std::vector<NodeId>> replicas_;

  // Per-node locate cache (sized by params.locate_cache_size; 0 = off).
  LocateCache cache_;

  // Quorum replication layer; null for the non-replicated backends, which
  // keeps every default code path identical to the pre-replication build.
  std::unique_ptr<QuorumReplicator> replicator_;

  // Event-driven state.
  std::size_t in_flight_ = 0;
  Timer republish_timer_;
  Timer expiry_timer_;

  // Wire layer for all cross-node pointer traffic (see bind_transport).
  Transport* transport_ = nullptr;
};

}  // namespace tap
