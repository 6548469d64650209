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
// Concurrency model: the registry changes only at quiescent points.
// Registration, deaths and partition transitions run serially — a wave
// (maintenance.h) registers its joiners and marks its victims dead in its
// serial preamble, before its threads start — so the id index is one plain
// open-addressing table, and its readers (find / checked / live / is_live,
// under every routing hot path) take no lock because nothing writes it
// while they read.  The one membership change a wave's workers make is
// counting: a joiner registered `inserting` counts in live_count() only
// from begin_insertion, when its insertion begins, so live_count() is the
// registry's one atomic.  Per-node protocol state is not the registry's:
// the stripe locks (node_locks.h) guard it inside a wave.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
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
  /// `params` and `rng` must outlive the registry (both live on Network).
  NodeRegistry(const MetricSpace& space, const TapestryParams& params,
               Rng& rng);
  ~NodeRegistry();

  NodeRegistry(const NodeRegistry&) = delete;
  NodeRegistry& operator=(const NodeRegistry&) = delete;

  // --- lookup ---
  [[nodiscard]] TapestryNode* find(const NodeId& id);
  [[nodiscard]] const TapestryNode* find(const NodeId& id) const;
  /// Node that must exist (alive or tombstone); throws CheckError otherwise.
  [[nodiscard]] TapestryNode& checked(const NodeId& id);
  [[nodiscard]] const TapestryNode& checked(const NodeId& id) const;
  /// Node that must exist and be alive; throws CheckError otherwise.
  [[nodiscard]] TapestryNode& live(const NodeId& id);
  [[nodiscard]] bool is_live(const NodeId& id) const;

  // --- membership bookkeeping ---
  /// Registers one live node.  An `inserting` one is registered pre-marked
  /// (§4.3) and counts in live_count() only from count_insertion(), when
  /// its insertion begins: a join wave registers every joiner in its
  /// serial preamble, yet k = effective_k(live_count()) grows one
  /// insertion at a time, as it does for serial joins.
  TapestryNode& register_node(NodeId id, Location loc, bool inserting = false);
  /// Counts an `inserting` node in live_count(): its insertion has begun.
  /// A join wave's workers call it, so the count is atomic.
  void count_insertion(const TapestryNode& node);
  /// Registers a batch of nodes — ids must be fresh and unique — with node
  /// construction (the dominant cost: levels * radix neighbor sets each)
  /// fanned out across `workers` threads.  Insertion order and the final
  /// index are identical for every worker count.
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
  /// Inside a join wave it also lists the joiners whose insertion has not
  /// begun; no wave worker reads it.
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
  /// simulator's algorithms do) but never the vector itself.
  [[nodiscard]] const std::vector<std::unique_ptr<TapestryNode>>& nodes()
      const noexcept {
    return nodes_;
  }

  /// Striped per-node mutexes guarding routing-table and insertion-flag
  /// access on the thread-parallel join and repair paths (see
  /// node_locks.h).  Serial (quiescent) callers pass a null table instead.
  [[nodiscard]] const NodeLockTable& node_locks() const noexcept {
    return node_locks_;
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
  /// Transitions happen at quiescent points, like every registry change.
  void set_partition(const std::vector<NodeId>& side_b);
  void clear_partition();
  [[nodiscard]] bool partition_active() const noexcept {
    return partition_active_;
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
  // One slot of the id index; a null `node` marks it empty.
  struct IndexSlot {
    std::uint64_t key = 0;
    TapestryNode* node = nullptr;
  };

  [[nodiscard]] TapestryNode* lookup(std::uint64_t key) const;
  /// Doubles the index until `entries` fill it to under 70%.
  void reserve_index(std::size_t entries);
  /// Puts a node into the index, which has room for it.
  void index_put(std::uint64_t key, TapestryNode* node);
  void validate_registration(const NodeId& id, Location loc) const;

  const MetricSpace& space_;
  const TapestryParams& params_;
  Rng& rng_;

  // The id index: open addressing with linear probing from the id's
  // splitmix64 hash, a power-of-two capacity (or none before the first
  // registration), one entry per node in nodes_.
  std::vector<IndexSlot> index_;
  std::vector<std::unique_ptr<TapestryNode>> nodes_;
  std::vector<NodeId> live_ids_;
  std::vector<std::uint64_t> live_sorted_;  // live id values, ascending
  std::atomic<std::size_t> live_count_{0};
  NodeLockTable node_locks_;

  bool partition_active_ = false;
  std::unordered_set<std::uint64_t> partition_side_b_;
};

}  // namespace tap
