// NodeRegistry: node storage and identity for the overlay simulator.
//
// Owns every TapestryNode ever registered, the id -> node index, the live
// count, and the metric-space distance/cost-accounting helpers every
// other subsystem routes through.  The registry knows nothing about the
// distributed algorithms — it is the "hardware" the Router, ObjectDirectory
// and MaintenanceEngine run on.
//
// A dead node stays registered as a tombstone: its id, location, index
// entry, `alive == false` and its object store, whose last-hop records
// DELETEPOINTERSBACKWARD still walks.  Its routing table stays while a
// live node links with it, so lazy repair can discover it, and is freed
// once none does (release_if_unlinked, maintenance.h): at the end of a
// departure, or when the last holder's purge or member's heartbeat push
// cuts the last live link.
//
// Concurrency model.  The id index is sharded by id prefix (the top bits
// of the identifier, i.e. the leading digit(s)); each shard publishes an
// immutable open-addressing table through an atomic pointer.  Readers —
// find / checked / live / is_live, which sit under every routing hot path —
// take no locks: they acquire-load the shard's current table and probe it.
// Writers (register_node / register_bulk) serialize per shard on a small
// mutex, insert in place where a slot is free (key store before a release
// store of the node pointer makes half-written entries invisible), and
// publish a grown copy when the load factor crosses its bound; superseded
// tables are retired, not freed, so a reader holding an old snapshot stays
// safe for the registry's lifetime (total retired memory is bounded by the
// doubling growth).  Index deletions never happen — dead nodes are
// tombstones by design — which is what makes the scheme this simple.
//
// The insertion-order nodes() vector is append-only under its own mutex,
// which also guards the two live-id lists (registration order, and sorted
// by value for the repair's prefix-range search); iterating any of them
// concurrently with registration or a death is the one operation that
// still requires quiescence (every current caller is a whole-network
// oracle/invariant pass, a serial draw or repair, or a wave whose
// membership is fixed before its threads start).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/metric/metric_space.h"
#include "src/sim/trace.h"
#include "src/tapestry/node.h"
#include "src/tapestry/node_locks.h"
#include "src/tapestry/params.h"

namespace tap {

class NodeRegistry {
 public:
  /// Index shards; ids map to shards by their top kShardBits bits.
  static constexpr unsigned kShardBits = 4;
  static constexpr unsigned kShardCount = 1u << kShardBits;

  /// `params` and `rng` must outlive the registry (both live on Network).
  NodeRegistry(const MetricSpace& space, const TapestryParams& params,
               Rng& rng);
  ~NodeRegistry();

  NodeRegistry(const NodeRegistry&) = delete;
  NodeRegistry& operator=(const NodeRegistry&) = delete;

  // --- lookup (lock-free snapshot reads) ---
  [[nodiscard]] TapestryNode* find(const NodeId& id);
  [[nodiscard]] const TapestryNode* find(const NodeId& id) const;
  /// Node that must exist (alive or tombstone); throws CheckError otherwise.
  [[nodiscard]] TapestryNode& checked(const NodeId& id);
  [[nodiscard]] const TapestryNode& checked(const NodeId& id) const;
  /// Node that must exist and be alive; throws CheckError otherwise.
  [[nodiscard]] TapestryNode& live(const NodeId& id);
  [[nodiscard]] bool is_live(const NodeId& id) const;

  // --- membership bookkeeping ---
  /// Registers one node.  The optional insertion flags are set on the node
  /// *before* it is published to the lock-free index, so a concurrent
  /// reader can never observe a mid-insertion node with `inserting` still
  /// false (the §4.4 core-start rule depends on that flag being visible
  /// with the node).
  TapestryNode& register_node(NodeId id, Location loc, bool inserting = false,
                              std::optional<NodeId> psurrogate = std::nullopt);
  /// Registers a batch of nodes — ids must be fresh and unique — with node
  /// construction (the dominant cost: levels * radix neighbor sets each)
  /// fanned out across `workers` threads.  Insertion order and the final
  /// index are identical for every worker count; concurrent lock-free
  /// readers may observe any prefix of the batch while it lands.
  void register_bulk(const std::vector<std::pair<NodeId, Location>>& batch,
                     std::size_t workers = 0);
  /// Marks an alive node dead (tombstone); the caller owns protocol duties.
  void mark_dead(TapestryNode& node);

  [[nodiscard]] std::size_t live_count() const noexcept {
    return live_count_.load(std::memory_order_relaxed);
  }
  /// Live nodes in registration order (a copy of live_ids()).
  [[nodiscard]] std::vector<NodeId> node_ids() const;
  /// The live ids in registration order — nodes() filtered by `alive` —
  /// without the copy: registration appends, mark_dead erases in place.
  /// Reading it requires quiescence with respect to both.
  [[nodiscard]] const std::vector<NodeId>& live_ids() const noexcept {
    return live_ids_;
  }
  /// The live ids that fit slot (level, digit) of a node with id `at` —
  /// `at`'s length-`level` prefix, then `digit` — as one contiguous range
  /// of ascending id values.  Kept current by registration and mark_dead,
  /// under the same quiescence contract as live_ids().
  [[nodiscard]] std::pair<const std::uint64_t*, const std::uint64_t*>
  live_in_slot(const NodeId& at, unsigned level, unsigned digit) const;

  /// Every node ever registered, tombstones included, in insertion order.
  /// The container is registry-owned; callers may mutate the *nodes* (the
  /// simulator's algorithms do) but never the vector itself.  Iteration
  /// requires quiescence with respect to registration.
  [[nodiscard]] const std::vector<std::unique_ptr<TapestryNode>>& nodes()
      const noexcept {
    return nodes_;
  }

  /// Stable pointers to every node registered so far, copied under the
  /// append mutex — the safe way to enumerate nodes while registration may
  /// be running on other threads (a thread-parallel join wave).  The
  /// snapshot observes some prefix of the concurrent registrations; node
  /// pointers stay valid for the registry's lifetime.
  [[nodiscard]] std::vector<TapestryNode*> nodes_snapshot() const;

  /// Striped per-node mutexes guarding routing-table and insertion-flag
  /// access on the thread-parallel join and repair paths (see
  /// node_locks.h).  Serial (quiescent) callers pass a null table instead.
  [[nodiscard]] const NodeLockTable& node_locks() const noexcept {
    return node_locks_;
  }

  /// Shard an id belongs to (by id prefix — its most significant bits).
  [[nodiscard]] unsigned shard_of(const NodeId& id) const noexcept {
    return static_cast<unsigned>(id.value() >> shard_shift_) &
           (kShardCount - 1);
  }

  // --- network partition model (fault-injection scenarios) ---
  /// Splits the overlay in two: nodes whose ids are in `side_b` can only
  /// exchange messages with other side-B nodes; everyone else forms side
  /// A.  The routing/locate layers skip unreachable-but-live peers
  /// *without purging them* — a partition is not a death, and tables must
  /// survive it intact so healing is instant at the membership layer.
  /// Ground-truth liveness (is_live, heartbeat sweeps, driver
  /// bookkeeping) is deliberately unaffected: the control plane of the
  /// simulation sees through the cut; only protocol traffic is blocked.
  /// Transitions require quiescence with respect to routing (the
  /// event-driven scenarios satisfy this trivially).
  void set_partition(const std::vector<NodeId>& side_b);
  void clear_partition();
  [[nodiscard]] bool partition_active() const noexcept {
    return partition_active_.load(std::memory_order_acquire);
  }
  /// May `a` and `b` exchange messages under the current partition?
  /// Always true when no partition is active.
  [[nodiscard]] bool reachable(const NodeId& a, const NodeId& b) const {
    if (!partition_active()) return true;
    return (partition_side_b_.count(a.value()) != 0) ==
           (partition_side_b_.count(b.value()) != 0);
  }

  // --- distances and cost accounting ---
  [[nodiscard]] double distance(const NodeId& a, const NodeId& b) const;
  [[nodiscard]] double dist(const TapestryNode& a,
                            const TapestryNode& b) const;
  /// Books `msgs` messages of distance dist(a, b) on `trace` (when not
  /// null) and on tapestry_messages_total, exactly as Transport::send
  /// books a message it delivers, so the counter equals what the Traces
  /// hold.  Only traffic no transport carries is booked here:
  ///   - the §3 descent: the surrogate's table request and bulk reply,
  ///     GETFORWARDANDBACKPOINTERS and the distance probes (join.cc);
  ///   - the §4.4 insertion: the surrogate bounce, the request to the
  ///     surrogate, each watch-list report and each multicast forward and
  ///     ack of every join, whatever its driver (join.cc);
  ///   - find_replacement's peer queries and index probes;
  ///   - leave's LEAVINGNETWORK notifications and REMOVELINK;
  ///   - the §6.4 distance probes and row exchanges.
  void acct(Trace* trace, const TapestryNode& a, const TapestryNode& b,
            std::size_t msgs = 1) const;
  /// Transport::send's distance argument for a message from `a` to `b`:
  /// dist(a, b) when `trace` books it, else 0 with no metric evaluation,
  /// as acct skips it.
  [[nodiscard]] double hop_dist(const Trace* trace, const TapestryNode& a,
                                const TapestryNode& b) const {
    return trace != nullptr ? dist(a, b) : 0.0;
  }

  // --- identifiers ---
  [[nodiscard]] NodeId fresh_node_id();  ///< random, unused id

  // --- aggregate accounting (Table 1 "space") ---
  [[nodiscard]] std::size_t total_table_entries() const;
  [[nodiscard]] std::size_t total_object_pointers() const;

  [[nodiscard]] const MetricSpace& space() const noexcept { return space_; }
  [[nodiscard]] const TapestryParams& params() const noexcept {
    return params_;
  }

 private:
  // One entry of a shard's open-addressing table.  `node` is the publish
  // gate: a reader that acquire-loads a non-null node pointer is guaranteed
  // to see the matching key (stored before the release).
  struct IndexSlot {
    std::atomic<std::uint64_t> key{0};
    std::atomic<TapestryNode*> node{nullptr};
  };
  struct IndexTable {
    explicit IndexTable(std::size_t capacity_pow2)
        : slots(capacity_pow2), mask(capacity_pow2 - 1) {}
    std::vector<IndexSlot> slots;
    std::size_t mask;
    std::size_t used = 0;  // writer-side, guarded by the shard mutex
  };
  struct Shard {
    std::mutex mu;  // serializes writers; readers never take it
    std::atomic<IndexTable*> table{nullptr};
    // Every table ever published, current one last; superseded snapshots
    // are retired here (not freed) so readers holding them stay safe.
    std::vector<std::unique_ptr<IndexTable>> tables;
  };

  [[nodiscard]] TapestryNode* lookup(std::uint64_t key) const;
  /// Inserts under the shard's writer mutex, growing + republishing the
  /// table when the load factor crosses 70%.
  void shard_insert(Shard& shard, std::uint64_t key, TapestryNode* node);
  void validate_registration(const NodeId& id, Location loc) const;

  const MetricSpace& space_;
  const TapestryParams& params_;
  Rng& rng_;

  unsigned shard_shift_;  // id.value() >> shard_shift_ = shard index bits
  std::array<Shard, kShardCount> shards_;

  // Guards nodes_ appends, live_ids_ and live_sorted_.
  mutable std::mutex nodes_mu_;
  std::vector<std::unique_ptr<TapestryNode>> nodes_;
  std::vector<NodeId> live_ids_;
  std::vector<std::uint64_t> live_sorted_;  // live id values, ascending
  std::atomic<std::size_t> live_count_{0};
  NodeLockTable node_locks_;

  std::atomic<bool> partition_active_{false};
  std::unordered_set<std::uint64_t> partition_side_b_;
};

}  // namespace tap
